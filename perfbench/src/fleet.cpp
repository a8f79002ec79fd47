#include "fleet.hpp"

#include <chrono>

#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace perfbench {

namespace {
constexpr double kJoinTimeoutS = 30;
}

Fleet::Fleet(hdcs::dist::ServerConfig config, int donors,
             const hdcs::dist::AlgorithmRegistry* registry) {
  server_ = std::make_unique<hdcs::dist::Server>(std::move(config));
  server_->start();
  for (int i = 0; i < donors; ++i) {
    hdcs::dist::ClientConfig c;
    c.server_port = server_->port();
    c.name = "donor-" + std::to_string(i);
    c.exit_when_idle = false;
    // Off so the load stays at one thread and one connection per donor;
    // with client_timeout = 0 heartbeats do not affect scheduling.
    c.send_heartbeats = false;
    if (registry) c.registry = registry;
    clients_.push_back(std::make_unique<hdcs::dist::Client>(c));
  }
  for (auto& client : clients_) {
    threads_.emplace_back([this, c = client.get()] {
      try {
        c->run();
      } catch (const std::exception&) {
        donor_failed_.store(true);
      }
    });
  }
  try {
    // Joined and idle: every donor is registered and has been answered
    // NoWork at least once, so it now sleeps in its no-work retry.
    hdcs::Stopwatch wait;
    for (;;) {
      int active = 0;
      for (const auto& info : server_->client_stats()) active += info.active;
      if (active >= donors &&
          server_->stats().work_requests_unserved >=
              static_cast<std::uint64_t>(donors)) {
        break;
      }
      if (donor_failed_.load() || wait.seconds() > kJoinTimeoutS) {
        throw hdcs::Error("donor fleet did not join");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  } catch (...) {
    shutdown();
    throw;
  }
}

Fleet::~Fleet() { shutdown(); }

void Fleet::shutdown() {
  for (auto& c : clients_) c->request_stop();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  if (server_) server_->stop();
}

}  // namespace perfbench
