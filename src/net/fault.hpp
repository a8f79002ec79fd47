#pragma once
// Deterministic network fault injection.
//
// A FaultPlan is a seeded stream of fault decisions (connect refusal,
// mid-frame disconnect, truncated send, corrupted byte, added latency)
// that TcpStream consults at its choke points — connect(), send_all(),
// recv_all(). Install one process-wide with ScopedFaultPlan and every
// connection in the process (server handlers, donor work loops and their
// keepalives) rides through the same storm; the chaos tests use this to
// prove the end-to-end system converges to byte-identical results anyway.
//
// Decisions are drawn from one mutex-guarded Rng, so a given seed produces
// one reproducible decision *sequence*; which thread consumes which
// decision still depends on scheduling, which is exactly the point — the
// system must tolerate any assignment of faults to operations.
//
// With no plan installed the per-operation overhead is one relaxed atomic
// load (the default for every non-chaos build and test).

#include <cstdint>
#include <mutex>
#include <optional>

#include "util/rng.hpp"

namespace hdcs::net {

struct FaultSpec {
  std::uint64_t seed = 1;
  /// TcpStream::connect() throws IoError without touching the network.
  double connect_refuse_prob = 0;
  /// recv_all() tears the connection down before reading (mid-frame EOF).
  double recv_disconnect_prob = 0;
  /// send_all() writes only a prefix, then breaks the pipe both ways.
  double send_truncate_prob = 0;
  /// One byte of a completed recv_all() is flipped (frame/bulk CRCs must
  /// catch this — corruption is detected, never merged).
  double corrupt_prob = 0;
  /// Added latency: with delay_prob, stall uniform [0, delay_max_s].
  double delay_prob = 0;
  double delay_max_s = 0.002;

  [[nodiscard]] bool any() const {
    return connect_refuse_prob > 0 || recv_disconnect_prob > 0 ||
           send_truncate_prob > 0 || corrupt_prob > 0 || delay_prob > 0;
  }
};

class FaultPlan {
 public:
  explicit FaultPlan(FaultSpec spec);

  // Decision points. Each draws from the shared stream and bumps the
  // matching net.fault.* counter when it fires (thread-safe).
  [[nodiscard]] bool refuse_connect();
  [[nodiscard]] bool drop_recv();
  /// Bytes to keep of a `len`-byte send (always < len), nullopt = intact.
  [[nodiscard]] std::optional<std::size_t> truncate_send(std::size_t len);
  /// Index of the byte to flip in a `len`-byte recv, nullopt = intact.
  [[nodiscard]] std::optional<std::size_t> corrupt_byte(std::size_t len);
  /// Seconds of injected latency for this operation (0 = none).
  [[nodiscard]] double delay_s();

  [[nodiscard]] const FaultSpec& spec() const { return spec_; }

 private:
  [[nodiscard]] bool draw(double prob);

  FaultSpec spec_;
  std::mutex mu_;
  Rng rng_;
};

/// Install `plan` as the process-global plan consulted by every TcpStream
/// operation; nullptr turns injection off (the default). The plan must
/// outlive its installation.
void install_fault_plan(FaultPlan* plan);
[[nodiscard]] FaultPlan* installed_fault_plan();

/// RAII install/uninstall for tests.
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(FaultSpec spec) : plan_(spec) {
    install_fault_plan(&plan_);
  }
  ~ScopedFaultPlan() { install_fault_plan(nullptr); }
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;

  [[nodiscard]] FaultPlan& plan() { return plan_; }

 private:
  FaultPlan plan_;
};

}  // namespace hdcs::net
