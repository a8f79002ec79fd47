#pragma once
// The benchmark's three workloads: how each job's inputs are generated from
// the workload seed and the job index, and how the scheduler is configured
// for it. The program under test only ever sees the generated inputs.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dist/data_manager.hpp"
#include "phylo/alignment.hpp"

namespace perfbench {

/// One alignment a job computes on, with the model its application uses.
/// Feeds the likelihood probe of the traced run.
struct PhyloInput {
  hdcs::phylo::Alignment alignment;
  std::string model_spec;
  std::string model_params;  // Config text: "kappa = 2.5\nalpha = 0.6\n"
};

/// One job: the problems a user submits together and waits on.
struct Job {
  /// Fresh, unstarted DataManagers over this job's inputs. Every call builds
  /// new instances, so the serial reference, the distributed run and the
  /// scheduler replay never share state.
  std::function<std::vector<std::shared_ptr<hdcs::dist::DataManager>>()> make;
  std::vector<PhyloInput> alignments;  // empty for DSEARCH
};

struct Workload {
  std::string name;
  std::string policy_spec;
  double min_ops = 1e4;  // SchedulerConfig::bounds.min_ops
  /// Distributed makespan and single-thread serial time of one job on the
  /// reference host (3 donors, 4 cores). They turn --seconds into a fixed
  /// job count, so a seed always runs the same jobs and the per-job counts
  /// repeat exactly.
  double nominal_job_s = 1;
  double nominal_serial_s = 1;
  /// SizeHint of the serial reference run. DSEARCH needs chunks of a few
  /// hundred sequences (about what the distributed run issues) or the batch
  /// kernels run mostly empty lanes and T(1) is inflated several times.
  double serial_unit_ops = 1e6;
  Job (*make_job)(std::uint64_t seed, std::size_t index, bool tiny) = nullptr;
};

/// The workload called `name`; throws hdcs::InputError for unknown names.
const Workload& find_workload(const std::string& name);

}  // namespace perfbench
