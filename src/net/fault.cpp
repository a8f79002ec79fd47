#include "net/fault.hpp"

#include <atomic>

#include "obs/metrics.hpp"

namespace hdcs::net {

namespace {
std::atomic<FaultPlan*> g_plan{nullptr};

struct FaultMetrics {
  obs::Counter& connects_refused =
      obs::Registry::global().counter("net.fault.connects_refused");
  obs::Counter& recv_disconnects =
      obs::Registry::global().counter("net.fault.recv_disconnects");
  obs::Counter& sends_truncated =
      obs::Registry::global().counter("net.fault.sends_truncated");
  obs::Counter& bytes_corrupted =
      obs::Registry::global().counter("net.fault.bytes_corrupted");
  obs::Counter& delays_injected =
      obs::Registry::global().counter("net.fault.delays_injected");
};
FaultMetrics& fault_metrics() {
  static FaultMetrics m;
  return m;
}
}  // namespace

FaultPlan::FaultPlan(FaultSpec spec) : spec_(spec), rng_(spec.seed) {}

bool FaultPlan::draw(double prob) {
  if (prob <= 0) return false;
  std::lock_guard lock(mu_);
  return rng_.next_double() < prob;
}

bool FaultPlan::refuse_connect() {
  bool hit = draw(spec_.connect_refuse_prob);
  if (hit) fault_metrics().connects_refused.inc();
  return hit;
}

bool FaultPlan::drop_recv() {
  bool hit = draw(spec_.recv_disconnect_prob);
  if (hit) fault_metrics().recv_disconnects.inc();
  return hit;
}

std::optional<std::size_t> FaultPlan::truncate_send(std::size_t len) {
  if (len == 0 || !draw(spec_.send_truncate_prob)) return std::nullopt;
  fault_metrics().sends_truncated.inc();
  std::lock_guard lock(mu_);
  return static_cast<std::size_t>(rng_.next_below(len));
}

std::optional<std::size_t> FaultPlan::corrupt_byte(std::size_t len) {
  if (len == 0 || !draw(spec_.corrupt_prob)) return std::nullopt;
  fault_metrics().bytes_corrupted.inc();
  std::lock_guard lock(mu_);
  return static_cast<std::size_t>(rng_.next_below(len));
}

double FaultPlan::delay_s() {
  if (!draw(spec_.delay_prob)) return 0;
  fault_metrics().delays_injected.inc();
  std::lock_guard lock(mu_);
  return rng_.uniform(0, spec_.delay_max_s);
}

void install_fault_plan(FaultPlan* plan) {
  g_plan.store(plan, std::memory_order_release);
}

FaultPlan* installed_fault_plan() {
  return g_plan.load(std::memory_order_acquire);
}

}  // namespace hdcs::net
