#include "dist/local_runner.hpp"

#include "util/error.hpp"

namespace hdcs::dist {

std::vector<std::byte> run_locally(DataManager& dm, double unit_ops,
                                   LocalRunStats* stats,
                                   const AlgorithmRegistry& registry) {
  auto algorithm = registry.create(dm.algorithm_name());
  auto data = dm.problem_data();
  algorithm->initialize(data);

  SizeHint hint;
  hint.target_ops = unit_ops;
  UnitId next_id = 1;
  while (!dm.is_complete()) {
    auto unit = dm.next_unit(hint);
    if (!unit) {
      // Serial execution returns every result before asking for the next
      // unit, so a stage barrier can never be outstanding here.
      throw Error(
          "DataManager stalled: no unit available but problem not complete "
          "(broken barrier bookkeeping?)");
    }
    unit->problem_id = 1;
    unit->unit_id = next_id++;

    ResultUnit result;
    result.problem_id = unit->problem_id;
    result.unit_id = unit->unit_id;
    result.stage = unit->stage;
    result.payload = algorithm->process(*unit);
    if (stats) {
      stats->units += 1;
      stats->total_cost_ops += unit->cost_ops;
    }
    dm.accept_result(result);
  }
  return dm.final_result();
}

}  // namespace hdcs::dist
