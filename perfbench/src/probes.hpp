#pragma once
// Per-layer probes of the traced run: each calls one module's public
// functions directly, on inputs taken from the workload, so a layer's cost
// is measured without the rest of the system around it.

#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

/// SchedulerCore self time per job (DataManager callbacks excluded), from a
/// bare in-process replay of `job` with `donors` virtual clients: no lock,
/// no WAL, no network. Units are computed in-process between the calls.
struct SchedulerReplay {
  double request_work_s = 0;
  double submit_result_s = 0;
};
SchedulerReplay replay_scheduler(const Workload& workload, const Job& job,
                                 int donors);

/// Mean seconds of one WalLog append() and one sync() of a SubmitResult
/// record carrying `payload_bytes`, in a fresh log under `dir`.
struct WalProbe {
  double append_s = 0;
  double sync_s = 0;
};
WalProbe probe_wal(const std::string& dir, std::size_t payload_bytes);

/// Data-plane rates in MB/s (1e6 bytes) over `samples`.
struct NetProbe {
  double crc32_mb_s = 0;
  double digest_mb_s = 0;
  double lz_compress_mb_s = 0;
  double lz_decompress_mb_s = 0;  // 0 when nothing was compressible
  double encode_blob_mb_s = 0;
};
NetProbe probe_net(const std::vector<std::vector<std::byte>>& samples);

/// LikelihoodEngine::log_likelihood evaluations per second on the NJ tree
/// of each alignment; 0 when there are none.
double probe_loglik(const std::vector<PhyloInput>& inputs);

}  // namespace perfbench
