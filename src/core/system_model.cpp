#include "core/system_model.hpp"

#include <chrono>
#include <memory>
#include <vector>

#include "obs/obs.hpp"
#include "sim/channels.hpp"
#include "tlm/bus.hpp"

namespace symbad::core {

namespace {

constexpr std::uint64_t kRamBase = 0x0000'0000;
constexpr std::uint64_t kEdgeBufferStride = 0x0002'0000;  // 128 KiB per buffer
constexpr std::uint32_t kMaxBurstBeats = 256;

/// One simulation's worth of structure. Built fresh for every run so that
/// repeated runs are independent and deterministic.
struct ModelInstance {
  const TaskGraph& graph;
  const Partition& partition;
  StageRuntime& runtime;
  const PlatformParams& params;
  const ModelLevel level;
  const int frames;

  sim::Kernel kernel;
  sim::Trace trace;

  // Platform (levels 2/3 only).
  std::unique_ptr<tlm::Bus> bus;
  std::unique_ptr<tlm::Memory> ram;
  std::unique_ptr<tlm::Memory> flash;
  std::unique_ptr<cpu::CpuModel> cpu_model;
  std::unique_ptr<fpga::FpgaDevice> fpga_dev;

  // Channels: one token FIFO per edge; edge index parallel to graph.channels().
  std::vector<std::unique_ptr<sim::Fifo<int>>> fifos;

  ModelInstance(const TaskGraph& g, const Partition& p, StageRuntime& r,
                const PlatformParams& pp, ModelLevel lvl, int frame_count)
      : graph{g}, partition{p}, runtime{r}, params{pp}, level{lvl}, frames{frame_count} {
    for (std::size_t i = 0; i < graph.channels().size(); ++i) {
      const auto& edge = graph.channels()[i];
      fifos.push_back(std::make_unique<sim::Fifo<int>>(
          kernel, edge.from + "->" + edge.to, edge.fifo_capacity));
    }
    if (level == ModelLevel::untimed_functional) return;

    partition.validate(graph);
    bus = std::make_unique<tlm::Bus>(kernel, "bus",
                                     tlm::Bus::Config{params.bus_hz, 1, 1});
    ram = std::make_unique<tlm::Memory>("ram", bus->clock_period(),
                                        tlm::Memory::Config{1, 0});
    flash = std::make_unique<tlm::Memory>("flash", bus->clock_period(),
                                          tlm::Memory::Config{4, 1});
    bus->map(kRamBase, 0x1000'0000, *ram);
    bus->map(params.fpga.bitstream_base, 0x1000'0000, *flash);
    cpu_model = std::make_unique<cpu::CpuModel>(kernel, "cpu", params.cpu, *bus);

    if (level == ModelLevel::reconfigurable) {
      auto context_map = partition.contexts();
      if (!context_map.empty()) {
        std::vector<fpga::ContextConfig> contexts;
        for (auto& [name, tasks] : context_map) {
          fpga::ContextConfig ctx;
          ctx.name = name;
          ctx.functions = tasks;
          ctx.bitstream_words = params.default_bitstream_words;
          double area = 0.0;
          for (const auto& t : tasks) {
            area += 200.0 + static_cast<double>(graph.task(t).ops_per_frame) / 1000.0;
          }
          ctx.area_units = area;
          contexts.push_back(std::move(ctx));
        }
        fpga_dev = std::make_unique<fpga::FpgaDevice>(kernel, "efpga",
                                                      std::move(contexts), *bus,
                                                      params.fpga);
      }
    }
  }

  [[nodiscard]] Mapping effective_mapping(const std::string& task) const {
    const Mapping m = partition.mapping_of(task);
    // Level 2 does not yet distinguish hardwired from soft hardware.
    if (m == Mapping::fpga &&
        (level != ModelLevel::reconfigurable || fpga_dev == nullptr)) {
      return Mapping::hardware;
    }
    return m;
  }

  [[nodiscard]] std::uint64_t edge_buffer_address(std::size_t edge_index) const {
    return kRamBase + 0x0010'0000 + edge_index * kEdgeBufferStride;
  }

  /// Burst-chunked bus transfer issued by `initiator`.
  sim::Task<void> burst(std::uint64_t address, std::uint32_t words, tlm::Command cmd,
                        const char* initiator) {
    std::uint32_t remaining = words;
    std::uint64_t addr = address;
    while (remaining > 0) {
      const std::uint32_t beats = remaining < kMaxBurstBeats ? remaining : kMaxBurstBeats;
      co_await bus->transport(tlm::Payload{cmd, addr, beats, initiator});
      addr += beats * 4ull;
      remaining -= beats;
    }
  }

  /// Pulls every boundary-crossing input of `task` and pushes every
  /// boundary-crossing output, as the owning resource.
  sim::Task<void> move_crossing_data(const std::string& task, bool inputs) {
    for (std::size_t i = 0; i < graph.channels().size(); ++i) {
      const auto& edge = graph.channels()[i];
      const bool relevant = inputs ? edge.to == task : edge.from == task;
      if (!relevant || edge.words_per_frame == 0) continue;
      if (!partition.crosses_boundary(edge)) continue;
      co_await burst(edge_buffer_address(i), edge.words_per_frame,
                     inputs ? tlm::Command::read : tlm::Command::write, task.c_str());
    }
    const std::uint32_t extra = inputs ? runtime.extra_read_words(task) : 0;
    if (extra > 0) {
      co_await burst(kRamBase + 0x0800'0000, extra, tlm::Command::read, task.c_str());
    }
  }

  [[nodiscard]] bool cpu_hosted(const std::string& task) const {
    if (level == ModelLevel::untimed_functional) return false;
    return effective_mapping(task) != Mapping::hardware;
  }

  void collect_ports(const std::string& task, std::vector<sim::Fifo<int>*>& ins,
                     std::vector<sim::Fifo<int>*>& outs) {
    for (std::size_t i = 0; i < graph.channels().size(); ++i) {
      const auto& edge = graph.channels()[i];
      if (edge.to == task) ins.push_back(fifos[i].get());
      if (edge.from == task) outs.push_back(fifos[i].get());
    }
  }

  /// Executes one stage's data semantics plus its timing/transfers, records
  /// the trace. (Token movement is handled by the caller.)
  sim::Task<void> execute_with_timing(const std::string& task, int frame) {
    const std::uint64_t ops = runtime.execute_stage(task, frame);

    if (level != ModelLevel::untimed_functional) {
      switch (effective_mapping(task)) {
        case Mapping::software: {
          co_await move_crossing_data(task, /*inputs=*/true);
          co_await cpu_model->execute(ops);
          co_await move_crossing_data(task, /*inputs=*/false);
          break;
        }
        case Mapping::hardware: {
          // The hardwired block masters its own transfers.
          co_await move_crossing_data(task, /*inputs=*/true);
          const double cycles = static_cast<double>(ops) / params.hw_ops_per_cycle;
          co_await kernel.wait(sim::Time::cycles(
              static_cast<std::int64_t>(cycles) + 1,
              sim::Time::period_of_hz(params.bus_hz)));
          co_await move_crossing_data(task, /*inputs=*/false);
          break;
        }
        case Mapping::fpga: {
          // Software initiates the reconfiguration and the data movement
          // (paper §3.3: "the software is lonely responsible for initiating
          // an FPGA reconfiguration").
          co_await fpga_dev->load_context(partition.context_of(task));
          co_await move_crossing_data(task, /*inputs=*/true);
          co_await fpga_dev->run_function(task, ops);
          co_await move_crossing_data(task, /*inputs=*/false);
          break;
        }
      }
    }
    trace.record(kernel.now(), task, runtime.trace_value(task, frame));
  }

  /// The per-task process used at level 1 (all tasks) and for hardwired HW
  /// blocks at levels 2/3: true pipeline concurrency.
  sim::Process task_process(std::string task) {
    std::vector<sim::Fifo<int>*> ins;
    std::vector<sim::Fifo<int>*> outs;
    collect_ports(task, ins, outs);
    const bool is_source = ins.empty();

    for (int frame = 0; frame < frames; ++frame) {
      for (auto* f : ins) (void)co_await f->read();
      if (is_source) runtime.begin_frame(frame);
      co_await execute_with_timing(task, frame);
      for (auto* f : outs) co_await f->write(frame);
    }
  }

  /// The collapsed SW task of levels 2/3 (paper §4.1: "SW modules have been
  /// collapsed to a single large SW task ... a simple cyclostatic scheduling
  /// for the 10 original SystemC modules"): one process executes every
  /// CPU-hosted stage in topological order, frame by frame. FPGA stages run
  /// inside this schedule because the software initiates them.
  sim::Process cpu_process(std::vector<std::string> schedule) {
    for (int frame = 0; frame < frames; ++frame) {
      for (const auto& task : schedule) {
        std::vector<sim::Fifo<int>*> ins;
        std::vector<sim::Fifo<int>*> outs;
        collect_ports(task, ins, outs);
        for (auto* f : ins) (void)co_await f->read();
        if (ins.empty()) runtime.begin_frame(frame);
        co_await execute_with_timing(task, frame);
        for (auto* f : outs) co_await f->write(frame);
      }
    }
  }
};

}  // namespace

SystemModel::SystemModel(TaskGraph graph, Partition partition, StageRuntime& runtime,
                         PlatformParams params, ModelLevel level)
    : graph_{std::move(graph)},
      partition_{std::move(partition)},
      runtime_{&runtime},
      params_{std::move(params)},
      level_{level} {
  (void)graph_.topological_order();  // rejects cyclic graphs up-front
}

PerformanceReport SystemModel::run(int frames) {
  if (frames <= 0) throw std::invalid_argument{"system_model: frames must be positive"};
  runtime_->reset_run();
  ModelInstance instance{graph_, partition_, *runtime_, params_, level_, frames};
  std::vector<std::string> cpu_schedule;
  for (const auto& task : graph_.topological_order()) {
    if (instance.cpu_hosted(task)) {
      cpu_schedule.push_back(task);
    } else {
      instance.kernel.spawn(instance.task_process(task), task);
    }
  }
  if (!cpu_schedule.empty()) {
    instance.kernel.spawn(instance.cpu_process(std::move(cpu_schedule)), "cpu.sw_task");
  }

  const auto wall_start = std::chrono::steady_clock::now();
  instance.kernel.run();
  const auto wall_end = std::chrono::steady_clock::now();

  PerformanceReport report;
  report.frames = frames;
  report.elapsed = instance.kernel.now();
  report.kernel_callbacks = instance.kernel.callbacks_executed();
  report.delta_cycles = instance.kernel.delta_cycles();
  report.host.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  report.trace = std::move(instance.trace);
  for (std::size_t i = 0; i < instance.fifos.size(); ++i) {
    report.fifo_peaks[instance.fifos[i]->name()] = instance.fifos[i]->peak_size();
  }
  if (!report.elapsed.is_zero()) {
    report.frames_per_second = frames / report.elapsed.to_seconds();
  }
  if (instance.bus != nullptr) {
    report.bus_beats = instance.bus->beats_transferred();
    report.bus_transactions = instance.bus->transactions();
    const double elapsed_s = report.elapsed.to_seconds();
    report.bus_load =
        elapsed_s <= 0.0 ? 0.0 : instance.bus->busy_time().to_seconds() / elapsed_s;
    if (report.host.wall_seconds > 0.0) {
      const double sim_cycles = report.elapsed.to_seconds() * params_.bus_hz;
      report.host.sim_cycles_per_wall_second = sim_cycles / report.host.wall_seconds;
    }
  }
  if (instance.cpu_model != nullptr && !report.elapsed.is_zero()) {
    report.cpu_utilisation =
        instance.cpu_model->busy_time().to_seconds() / report.elapsed.to_seconds();
  }
  if (instance.fpga_dev != nullptr) {
    report.reconfigurations = instance.fpga_dev->reconfiguration_count();
    report.reconfiguration_time = instance.fpga_dev->reconfiguration_time();
    report.consistency_violations = instance.fpga_dev->violations().size();
  }
  // HostMetrics is a per-run view; the registry's host.* gauges are the
  // aggregated source of truth for host time (wall seconds accumulate
  // across runs, the kHz figure is last-run).
  obs::gauge<"host.sim.wall_seconds">().add(report.host.wall_seconds);
  obs::gauge<"host.sim.cycles_per_wall_second">().set(
      report.host.sim_cycles_per_wall_second);
  return report;
}

}  // namespace symbad::core
