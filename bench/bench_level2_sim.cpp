// E2 — Level-2 timed TL simulation speed (paper §4.1: "The TL model of the
// partitioned system is able to produce a simulation speed closed to
// 200kHz"). Reports simulated bus-clock kHz per wall second plus the
// platform statistics the performance-evaluation step needs.

#include <benchmark/benchmark.h>

// Counting allocator shared with test_sim's steady-state pin, so the CI
// perf gate's host-independent `allocations` counter and the test measure
// the same thing (the header defines this binary's global operator new).
#include "../tests/support/alloc_counter.hpp"
#include "bench_common.hpp"
#include "sim/kernel.hpp"

namespace {

using namespace symbad;

void BM_Level2_TimedPlatformSimulation(benchmark::State& state) {
  auto& cs = benchfix::case_study();
  const int frames = static_cast<int>(state.range(0));
  core::PerformanceReport last;
  for (auto _ : state) {
    app::FaceStageRuntime runtime{cs.db};
    core::SystemModel level2{cs.graph, app::paper_level2_partition(cs.graph), runtime,
                             {}, core::ModelLevel::timed_platform};
    last = level2.run(frames);
    benchmark::DoNotOptimize(last.bus_beats);
  }
  state.counters["sim_speed_kHz"] = last.host.sim_cycles_per_wall_second / 1e3;
  state.counters["frames_per_sim_s"] = last.frames_per_second;
  state.counters["bus_load_pct"] = last.bus_load * 100.0;
  state.counters["cpu_util_pct"] = last.cpu_utilisation * 100.0;
  state.counters["bus_transactions"] = static_cast<double>(last.bus_transactions);
}
BENCHMARK(BM_Level2_TimedPlatformSimulation)->Arg(4)->Arg(12)->Unit(benchmark::kMillisecond);

/// All-software mapping at level 2: the baseline the partition improves on.
void BM_Level2_AllSoftwareBaseline(benchmark::State& state) {
  auto& cs = benchfix::case_study();
  core::PerformanceReport last;
  for (auto _ : state) {
    app::FaceStageRuntime runtime{cs.db};
    core::SystemModel model{cs.graph, core::Partition::all_software(cs.graph), runtime,
                            {}, core::ModelLevel::timed_platform};
    last = model.run(4);
    // By address: GCC's "+m,r" constraint on a double lvalue can hand
    // back a clobbered value, which then lands in the reported counters.
    benchmark::DoNotOptimize(&last);
  }
  state.counters["frames_per_sim_s"] = last.frames_per_second;
  state.counters["cpu_util_pct"] = last.cpu_utilisation * 100.0;
}
BENCHMARK(BM_Level2_AllSoftwareBaseline)->Unit(benchmark::kMillisecond);

/// Kernel hot path in isolation: a ring of self-rescheduling timed events
/// plus delta notifications — the schedule()/drain pattern every platform
/// model reduces to. After warm-up the SmallFn payloads and the retained
/// queue capacity make this loop allocation-free; the callbacks/s counter
/// is the direct measure of the scheduler's overhead.
void BM_Level2_KernelSchedulePath(benchmark::State& state) {
  using namespace symbad::sim;
  for (auto _ : state) {
    Kernel kernel;
    Event tick{kernel, "tick"};
    constexpr int kEvents = 64;
    constexpr std::uint64_t kRounds = 2000;
    // Warm-up round: queues grow to steady-state capacity.
    for (int i = 0; i < kEvents; ++i) {
      kernel.schedule(Time::ns(i + 1), [&kernel, &tick, left = std::uint64_t{8}]() mutable {
        struct Warm {
          Kernel* kernel;
          Event* tick;
          std::uint64_t left;
          void operator()() {
            tick->notify();
            if (--left > 0) kernel->schedule(Time::ns(7), std::move(*this));
          }
        };
        Warm{&kernel, &tick, left}();
      });
    }
    (void)kernel.run();
    test_support::arm_allocation_counter();
    for (int i = 0; i < kEvents; ++i) {
      kernel.schedule(Time::ns(i + 1), [&kernel, &tick, left = kRounds]() mutable {
        struct Hop {
          Kernel* kernel;
          Event* tick;
          std::uint64_t left;
          void operator()() {
            tick->notify();
            if (--left > 0) kernel->schedule(Time::ns(7), std::move(*this));
          }
        };
        Hop{&kernel, &tick, left}();
      });
    }
    (void)kernel.run();
    const auto allocations = test_support::disarm_allocation_counter();
    benchmark::DoNotOptimize(kernel.callbacks_executed());
    state.counters["callbacks"] =
        static_cast<double>(kernel.callbacks_executed());
    state.counters["allocations"] = static_cast<double>(allocations);
  }
  state.SetItemsProcessed(state.iterations() * 64 * 2000);
}
BENCHMARK(BM_Level2_KernelSchedulePath)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
