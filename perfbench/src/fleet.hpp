#pragma once
// The system under test: one dist::Server on loopback with its WAL on, and
// a persistent fleet of dist::Client donor threads attached to it.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dist/client.hpp"
#include "dist/server.hpp"

namespace perfbench {

class Fleet {
 public:
  /// Starts the server, attaches `donors` clients and returns once every
  /// donor has joined and been told there is no work (i.e. sits idle).
  /// `registry` null = the clients' default (the global registry).
  Fleet(hdcs::dist::ServerConfig config, int donors,
        const hdcs::dist::AlgorithmRegistry* registry);
  /// Stops the donors (each finishes its current sleep), then the server.
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  [[nodiscard]] hdcs::dist::Server& server() { return *server_; }
  /// True if any donor's run() ended with an exception.
  [[nodiscard]] bool donor_failed() const { return donor_failed_.load(); }

 private:
  void shutdown();

  std::unique_ptr<hdcs::dist::Server> server_;
  std::vector<std::unique_ptr<hdcs::dist::Client>> clients_;
  std::atomic<bool> donor_failed_{false};
  std::vector<std::thread> threads_;  // last: they use the members above
};

}  // namespace perfbench
