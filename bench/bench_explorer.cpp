// E10 — architecture exploration (flow steps II-III-IV: "a single
// configuration must be graded according to performance, silicon usage,
// power consumption ... a number of iterations ... to find the best product
// trade-off"). Measures the exploration itself and reports the front.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/explorer.hpp"

namespace {

using namespace symbad;

void BM_Explorer_FullSweep(benchmark::State& state) {
  auto& cs = benchfix::case_study();
  core::Explorer::Options options;
  options.pinned_software = {"CAMERA", "DATABASE", "WINNER"};
  options.max_hw_tasks = static_cast<int>(state.range(0));
  core::Explorer explorer{cs.graph, core::AnalyticModel{core::PlatformParams{}},
                          options};
  std::vector<core::DesignPoint> points;
  for (auto _ : state) {
    points = explorer.explore();
    benchmark::DoNotOptimize(points.size());
  }
  const auto front = core::Explorer::pareto_front(points);
  state.counters["design_points"] = static_cast<double>(points.size());
  state.counters["pareto_points"] = static_cast<double>(front.size());
  state.counters["best_fps"] = points.empty() ? 0.0 : points.front().grade.frames_per_second;
  state.counters["best_area"] = points.empty() ? 0.0 : points.front().grade.area_units;
  state.counters["best_power_mw"] = points.empty() ? 0.0 : points.front().grade.power_mw;
}
BENCHMARK(BM_Explorer_FullSweep)->Arg(2)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

/// Analytic grade vs simulated measurement for the paper's level-3 point:
/// the analytic model must be a usable exploration proxy.
void BM_Explorer_AnalyticVsSimulated(benchmark::State& state) {
  auto& cs = benchfix::case_study();
  const auto partition = app::paper_level3_partition(cs.graph);
  const core::AnalyticModel analytic{core::PlatformParams{}};
  core::Grade grade;
  core::PerformanceReport simulated;
  for (auto _ : state) {
    grade = analytic.grade(cs.graph, partition, 2);
    app::FaceStageRuntime runtime{cs.db};
    core::SystemModel model{cs.graph, partition, runtime, {},
                            core::ModelLevel::reconfigurable};
    simulated = model.run(4);
    // By address: GCC's "+m,r" constraint on a double lvalue can hand
    // back a clobbered value, which then lands in the reported counters.
    benchmark::DoNotOptimize(&simulated);
  }
  state.counters["analytic_fps"] = grade.frames_per_second;
  state.counters["simulated_fps"] = simulated.frames_per_second;
  state.counters["analytic_bus_load_pct"] = grade.bus_load * 100.0;
  state.counters["simulated_bus_load_pct"] = simulated.bus_load * 100.0;
}
BENCHMARK(BM_Explorer_AnalyticVsSimulated)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
