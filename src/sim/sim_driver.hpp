#pragma once
// Discrete-event simulation of the distributed system.
//
// Drives the *real* SchedulerCore and the *real* application DataManagers /
// Algorithms, but replaces wall-clock compute and network transfer with a
// cost model in virtual time. Each unit's result payload is produced by
// actually executing the registered Algorithm (so merged answers are
// bit-identical to a serial run); the time *charged* for it is
//
//     cost_ops / (reference_ops_per_sec * machine.speed * availability)
//
// The network model captures what limited the paper's deployment: one
// server (a PIII-500) on one shared 100 Mbit/s link. All bytes in or out of
// the server serialise through a FIFO link resource, and every message
// costs server CPU — this is what bends Fig. 1 away from linear speedup at
// high processor counts.
//
// What it models is the fleet: donor speed, availability and owner on/off
// periods, churn (crash or Goodbye, optional rejoin), lying donors, and the
// link and server costs including the blob plane. The failure paths of the
// server and donor — standby failover, durability degradation, WAL
// compaction, Hello shedding, transport faults — are not modelled; they are
// tested where they run, over TCP (tests/test_chaos.cpp,
// tests/test_server_client.cpp).

#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "dist/data_manager.hpp"
#include "dist/registry.hpp"
#include "dist/scheduler_core.hpp"
#include "sim/event_queue.hpp"
#include "sim/fleet.hpp"
#include "util/rng.hpp"

namespace hdcs::sim {

struct NetworkSpec {
  double latency_s = 0.5e-3;          // one-way control-message latency
  double bandwidth_bps = 100e6 / 8;   // shared 100 Mbit/s server link, bytes/s
  double server_overhead_s = 1.2e-3;  // server CPU per handled message
  double server_per_byte_s = 2e-8;    // server CPU per payload byte
  double frame_overhead_bytes = 64;   // header + TCP/IP framing per message
};

struct SimConfig {
  NetworkSpec network;
  dist::SchedulerConfig scheduler;
  std::string policy_spec = "adaptive:15";
  /// ops/sec of the reference machine (PIII 1 GHz, speed = 1.0).
  double reference_ops_per_sec = 5e7;
  double no_work_retry_s = 2.0;
  double tick_interval_s = 1.0;
  std::uint64_t seed = 1;
  /// Memoize unit results by payload (deterministic algorithms only) so
  /// sweeping fleet sizes over the same problem re-executes nothing.
  bool cache_results = true;
  /// Hard stop (virtual seconds); exceeded => Error (deadlock guard).
  double max_sim_time = 5e7;
  const dist::AlgorithmRegistry* registry = &dist::AlgorithmRegistry::global();
  /// Optional structured event trace, stamped with *virtual* seconds. Same
  /// schema as the TCP server's trace. Must outlive the driver; not owned.
  obs::Tracer* tracer = nullptr;
};

struct MachineOutcome {
  std::string name;
  double busy_s = 0;          // virtual seconds spent computing
  std::uint64_t units = 0;
  bool departed = false;
};

struct SimOutcome {
  double makespan_s = 0;  // virtual time at which the last problem completed
  std::vector<MachineOutcome> machines;
  dist::SchedulerStats scheduler;
  std::uint64_t messages = 0;
  double bytes_transferred = 0;
  std::uint64_t events_executed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Bulk-data plane (mirrors the TCP bulk.* counters): blobs actually
  /// shipped over the virtual link vs transfers avoided because the
  /// machine already held the digest, plus the raw/wire byte totals (wire
  /// < raw when the simulated compression bites).
  std::uint64_t blobs_sent = 0;
  std::uint64_t blob_cache_hits = 0;
  double blob_bytes_raw = 0;
  double blob_bytes_wire = 0;
  std::map<dist::ProblemId, std::vector<std::byte>> final_results;
  std::map<dist::ProblemId, double> completion_time_s;

  /// Aggregate donor utilisation: busy time / (machines * makespan).
  [[nodiscard]] double mean_utilization() const;
};

class SimDriver {
 public:
  SimDriver(SimConfig config, std::vector<MachineSpec> fleet);
  ~SimDriver();

  /// Register a problem before run(). Several may run concurrently.
  dist::ProblemId add_problem(std::shared_ptr<dist::DataManager> dm);

  /// Run the simulation until all problems complete; returns the outcome.
  /// Throws Error if the virtual clock exceeds max_sim_time.
  SimOutcome run();

  /// Share one result cache across several SimDriver runs (fleet-size
  /// sweeps): pass the map returned by take_cache() of the previous run.
  using ResultCache = std::unordered_map<std::string, std::vector<std::byte>>;
  void set_shared_cache(std::shared_ptr<ResultCache> cache) { cache_ = std::move(cache); }
  [[nodiscard]] std::shared_ptr<ResultCache> shared_cache() const { return cache_; }

 private:
  struct Machine {
    MachineSpec spec;
    dist::ClientId client_id = 0;
    int generation = 0;  // bumped on leave; stale events check it
    bool alive = false;
    bool ever_joined = false;
    Rng rng{0};
    double busy_s = 0;
    std::uint64_t units = 0;
    bool departed_for_good = false;
    /// Digests this machine holds (its virtual blob cache, memory-tier
    /// semantics: cleared on rejoin). Problem data and unit blobs both
    /// live here — one dedup plane, like the real donor.
    std::set<std::uint64_t> have_blobs;
    /// Problems whose data this machine has initialized — a real donor
    /// builds its Algorithm once per problem and never consults the blob
    /// plane for that data again, so neither does the simulated one.
    std::vector<dist::ProblemId> have_data;
  };

  struct ProblemCtx {
    std::shared_ptr<dist::DataManager> dm;
    std::unique_ptr<dist::Algorithm> algorithm;  // lazily initialized
    bool complete_recorded = false;
    std::uint64_t data_hash = 0;     // cached FNV of problem_data()
    bool data_hashed = false;
  };

  // --- simulation mechanics ---
  void machine_join(std::size_t idx);
  void machine_request_work(std::size_t idx, int gen);
  void machine_submit(std::size_t idx, int gen, dist::ResultUnit result);
  void machine_leave(std::size_t idx);
  double transfer(double ready_at, double payload_bytes);  // shared link FIFO
  /// Wall-clock time to accrue `compute_s` of donor CPU on machine m,
  /// under its availability model (jitter or owner on/off periods).
  double wall_time_for_compute(Machine& m, double compute_s);
  double server_handle(double arrival, double payload_bytes);  // server CPU FIFO
  std::vector<std::byte> execute_unit(const dist::WorkUnit& unit);
  /// Wire bytes a v4 transfer of this blob would cost (header + compressed
  /// body, memoised per digest — blobs are immutable).
  double blob_wire_bytes(std::uint64_t digest, std::span<const std::byte> bytes);
  /// Deliver one blob to machine `m` unless it already holds the digest.
  /// Charges the shared link (compressed wire size) on a miss and emits the
  /// same blob_sent / blob_cache_hit events and bulk.* counters as the TCP
  /// server. Returns when the blob is available on the machine.
  double deliver_blob(Machine& m, double ready, std::uint64_t digest,
                      std::span<const std::byte> bytes);
  double availability_draw(Machine& m);
  void schedule_tick();

  SimConfig config_;
  std::vector<Machine> machines_;
  EventQueue queue_;
  dist::SchedulerCore core_;
  std::map<dist::ProblemId, ProblemCtx> problems_;
  std::shared_ptr<ResultCache> cache_;
  Rng rng_;

  double link_busy_until_ = 0;
  double server_busy_until_ = 0;
  std::uint64_t messages_ = 0;
  double bytes_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::map<std::uint64_t, double> blob_wire_bytes_;  // digest -> wire cost
  std::uint64_t blobs_sent_ = 0;
  std::uint64_t blob_cache_hits_ = 0;
  double blob_bytes_raw_ = 0;
  double blob_bytes_wire_ = 0;
  double last_completion_ = 0;
  std::map<dist::ProblemId, double> completion_time_;
  bool ran_ = false;
};

}  // namespace hdcs::sim
