#pragma once
// Serial in-process execution of a Problem.
//
// Runs the DataManager and Algorithm back to back with no network and no
// scheduler. This is (a) the ground truth for correctness tests — the
// distributed answer must match it bit for bit — and (b) the T(1) baseline
// for the speedup figures.

#include <memory>
#include <vector>

#include "dist/algorithm.hpp"
#include "dist/data_manager.hpp"
#include "dist/registry.hpp"

namespace hdcs::dist {

struct LocalRunStats {
  std::uint64_t units = 0;
  double total_cost_ops = 0;
};

/// Run to completion on the calling thread; returns the DataManager's
/// final_result(). `unit_ops` is the SizeHint used for every unit.
std::vector<std::byte> run_locally(
    DataManager& dm, double unit_ops = 1e6, LocalRunStats* stats = nullptr,
    const AlgorithmRegistry& registry = AlgorithmRegistry::global());

}  // namespace hdcs::dist
