// End-to-end flow benchmark: the Symbad flow as a designer runs it, timed
// per iteration and checked against golden outputs. See README.md for the
// workloads, the metrics and the statistics.
//
//   flow_bench --workload paper_flow --seed 1 --seconds 36 --trace 0 --out DIR
//              [--golden DIR] [--write-golden]
//
// One process runs one workload as a single closed-loop caller: an untimed
// warm-up iteration, then back-to-back iterations until --seconds elapse.
// Every iteration first redoes the workload's set-up (timed on its own),
// then runs the workload body (the iteration time). The last stdout line is
// the result object plus the run's tail percentile, sample count, host probe
// and worker count; run.py splits it into the run record and the result.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "app/face_system.hpp"
#include "app/rtl_blocks.hpp"
#include "app/sw_source.hpp"
#include "atpg/atpg.hpp"
#include "core/explorer.hpp"
#include "core/system_model.hpp"
#include "exec/campaign.hpp"
#include "gen/gen.hpp"
#include "lpv/lpv.hpp"
#include "mc/mc.hpp"
#include "media/database.hpp"
#include "obs/obs.hpp"
#include "pcc/pcc.hpp"
#include "symbc/checker.hpp"

namespace {

using namespace symbad;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kDefaultSeed = 1;
constexpr int kCampaignWorkers = 4;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double cpu_ms_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

/// Peak resident set of this process image. getrusage's ru_maxrss would
/// also count the launching process, since it survives execve.
double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error{"no VmHWM in /proc/self/status"};
}

/// splitmix64: every random choice of a workload is a salted draw from the
/// workload seed, so one --seed fixes all of them.
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed ^ salt;
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// FNV-1a over a string, for digests of long outputs.
std::uint64_t fnv(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

// ------------------------------------------------------------------ spans

/// Benchmark-side spans around the public calls into each layer. Off in
/// untraced iterations (one branch per span). Self time is the span's
/// duration minus that of its direct children.
class Tracer {
 public:
  struct Event {
    const char* name;
    double start_ms;
    double dur_ms;
    int depth;
  };
  struct Rollup {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };

  bool enabled = false;
  Clock::time_point origin = Clock::now();
  std::vector<Event> events;                  ///< every traced span, in order
  std::map<std::string, Rollup> iteration;    ///< current iteration's rollup

  void open() { child_ms_.push_back(0.0); }
  void close(const char* name, Clock::time_point start, Clock::time_point end) {
    const double dur = ms_between(start, end);
    const double children = child_ms_.back();
    child_ms_.pop_back();
    if (!child_ms_.empty()) child_ms_.back() += dur;
    auto& r = iteration[name];
    ++r.count;
    r.total_ms += dur;
    r.self_ms += dur - children;
    events.push_back({name, ms_between(origin, start), dur,
                      static_cast<int>(child_ms_.size())});
  }

 private:
  std::vector<double> child_ms_;
};

Tracer g_tracer;

class Span {
 public:
  explicit Span(const char* name) : name_{name}, active_{g_tracer.enabled} {
    if (active_) {
      g_tracer.open();
      start_ = Clock::now();
    }
  }
  ~Span() {
    if (active_) g_tracer.close(name_, start_, Clock::now());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  bool active_;
  Clock::time_point start_{};
};

// ---------------------------------------------------------------- outputs

/// The checked outputs of one iteration, as ordered (key, value) text.
using Outputs = std::vector<std::pair<std::string, std::string>>;

/// Per-iteration layer figures the registry does not carry (they live in
/// the reports the public calls return).
struct Extras {
  double bus_transactions = 0.0;
  double reconfigurations = 0.0;
  double sim_cycles = 0.0;
  double sim_wall_s = 0.0;
  double queue_wait_s = 0.0;
  double worker_wall_s = 0.0;
  double laerte_bit_faults = 0.0;
  double laerte_bit_detected = 0.0;
  double sat_faults = 0.0;
  double sat_detected = 0.0;

  void add_report(const core::PerformanceReport& r) {
    bus_transactions += static_cast<double>(r.bus_transactions);
    reconfigurations += static_cast<double>(r.reconfigurations);
    sim_cycles += r.host.sim_cycles_per_wall_second * r.host.wall_seconds;
    sim_wall_s += r.host.wall_seconds;
  }
  /// Worker wall and queue-wait gauges of the campaign that just ran.
  void add_campaign_workers(const obs::Snapshot& snap, int workers) {
    for (int w = 0; w < workers; ++w) {
      const std::string prefix = "host.exec.worker" + std::to_string(w);
      worker_wall_s += snap.gauge(prefix + ".wall_seconds");
      queue_wait_s += snap.gauge(prefix + ".queue_wait_seconds");
    }
  }
};

std::string status_name(mc::CheckStatus s) {
  switch (s) {
    case mc::CheckStatus::proved: return "proved";
    case mc::CheckStatus::falsified: return "falsified";
    case mc::CheckStatus::no_cex_within_bound: return "no_cex";
  }
  return "?";
}

void add_pcc(Outputs& out, const std::string& key, const pcc::PccReport& r) {
  std::string undetected;
  for (const auto& f : r.undetected) {
    undetected += std::to_string(f.net) + (f.stuck_to ? "/1 " : "/0 ");
  }
  out.emplace_back(key + ".faults", std::to_string(r.total_faults));
  out.emplace_back(key + ".detected", std::to_string(r.detected));
  out.emplace_back(key + ".by_sim", std::to_string(r.detected_by_simulation));
  out.emplace_back(key + ".by_bmc", std::to_string(r.detected_by_bmc));
  out.emplace_back(key + ".undetected_digest", hex(fnv(undetected)));
}

// -------------------------------------------------------------- workloads

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  /// Rebuilds the workload's set-up state from scratch.
  virtual void setup() = 0;
  /// Runs the workload body on the set-up state, then drops the state.
  virtual Outputs iterate(Extras& extras) = 0;
  /// Whether the body runs on more threads than the calling one.
  [[nodiscard]] virtual bool multithreaded() const { return false; }
};

/// The paper's headline flow (examples/face_recognition_flow) through the
/// public API: levels 1-3 under the ATPG/LPV/SymbC/MC/PCC cascade.
class PaperFlow final : public Workload {
 public:
  explicit PaperFlow(std::uint64_t seed)
      : laerte_seed_{derive(seed, 0x1AE47EULL)}, pcc_seed_{derive(seed, 0x9CCULL)} {}

  void setup() override {
    Span span{"media.enroll"};
    state_.emplace(State{media::FaceDatabase::enroll(20, 5), {}});
    state_->graph = app::face_task_graph(state_->db);
  }

  Outputs iterate(Extras& extras) override {
    Outputs out;
    const auto& db = state_->db;
    auto& graph = state_->graph;

    app::FaceStageRuntime rt1{db};
    core::PerformanceReport rep1;
    {
      Span span{"core.system_model_run.l1"};
      core::SystemModel level1{graph, core::Partition::all_software(graph), rt1, {},
                               core::ModelLevel::untimed_functional};
      rep1 = level1.run(6);
    }
    extras.add_report(rep1);
    out.emplace_back("l1.trace", hex(rep1.trace.fingerprint()));
    out.emplace_back("l1.callbacks", std::to_string(rep1.kernel_callbacks));

    std::optional<atpg::Laerte> laerte;
    {
      Span span{"atpg.laerte_init"};
      laerte.emplace(atpg::Laerte::Config{8, 3, 64, {}, 8});
    }
    atpg::Testbench tb;
    {
      Span span{"atpg.laerte_genetic"};
      tb = laerte->genetic_testbench(5, 6, 3, laerte_seed_);
    }
    atpg::Estimate estimate;
    {
      Span span{"atpg.laerte_grade"};
      estimate = laerte->evaluate(tb, /*grade_bit_faults=*/true);
    }
    bool bug_found = false;
    {
      Span span{"atpg.laerte_seeded_bug"};
      bug_found = laerte->detects_seeded_memory_bug(tb);
    }
    extras.laerte_bit_faults += static_cast<double>(estimate.bit_faults.total);
    extras.laerte_bit_detected += static_cast<double>(estimate.bit_faults.detected);
    out.emplace_back("laerte.stmt", exact(estimate.coverage.statement_percent()));
    out.emplace_back("laerte.branch", exact(estimate.coverage.branch_percent()));
    out.emplace_back("laerte.cond", exact(estimate.coverage.condition_percent()));
    out.emplace_back("laerte.bit_faults", std::to_string(estimate.bit_faults.detected) +
                                              "/" +
                                              std::to_string(estimate.bit_faults.total));
    out.emplace_back("laerte.seeded_bug", bug_found ? "found" : "missed");

    {
      Span span{"lpv"};
      const auto net = lpv::petri_from_task_graph(graph);
      out.emplace_back("lpv.deadlock_free",
                       lpv::check_deadlock_freeness(net).proved_free ? "1" : "0");
    }

    {
      Span span{"app.profile_reference"};
      const auto profile = app::profile_reference(db, 4);
      app::annotate_from_profile(graph, profile, 4);
    }

    app::FaceStageRuntime rt2{db};
    core::PerformanceReport rep2;
    {
      Span span{"core.system_model_run.l2"};
      core::SystemModel level2{graph, app::paper_level2_partition(graph), rt2, {},
                               core::ModelLevel::timed_platform};
      rep2 = level2.run(6);
    }
    extras.add_report(rep2);
    out.emplace_back("l2.trace", hex(rep2.trace.fingerprint()));
    out.emplace_back("l2.fps", exact(rep2.frames_per_second));
    out.emplace_back("l2.bus_load", exact(rep2.bus_load));
    out.emplace_back("l2.bus_transactions", std::to_string(rep2.bus_transactions));
    out.emplace_back("l1_l2.agree", sim::Trace::data_equal(rep1.trace, rep2.trace) ? "1" : "0");

    {
      Span span{"lpv"};
      std::map<std::string, double> durations;
      for (const auto& node : graph.tasks()) {
        durations[node.name] = static_cast<double>(node.ops_per_frame) / (50e6 / 1.8);
      }
      const auto deadline = lpv::check_deadline(graph, durations, 0.2);
      const auto sizing =
          lpv::size_fifos_for_period(graph, durations, deadline.min_period_s * 1.05);
      out.emplace_back("lpv.deadline", std::string{deadline.met ? "met " : "missed "} +
                                           exact(deadline.min_period_s));
      out.emplace_back("lpv.fifo", std::string{sizing.feasible ? "feasible " : "infeasible "} +
                                       std::to_string(sizing.total_slots));
    }

    app::FaceStageRuntime rt3{db};
    core::PerformanceReport rep3;
    {
      Span span{"core.system_model_run.l3"};
      core::SystemModel level3{graph, app::paper_level3_partition(graph), rt3, {},
                               core::ModelLevel::reconfigurable};
      rep3 = level3.run(6);
    }
    extras.add_report(rep3);
    out.emplace_back("l3.trace", hex(rep3.trace.fingerprint()));
    out.emplace_back("l3.fps", exact(rep3.frames_per_second));
    out.emplace_back("l3.bus_load", exact(rep3.bus_load));
    out.emplace_back("l3.reconfigurations", std::to_string(rep3.reconfigurations));
    out.emplace_back("l3.consistency_violations",
                     std::to_string(rep3.consistency_violations));
    out.emplace_back("l2_l3.agree", sim::Trace::data_equal(rep2.trace, rep3.trace) ? "1" : "0");

    {
      const auto spec = app::face_config_spec();
      symbc::ConsistencyResult ok;
      symbc::ConsistencyResult bad;
      {
        Span span{"symbc.check_source"};
        ok = symbc::check_source(app::face_sw_correct(), spec);
      }
      {
        Span span{"symbc.check_source"};
        bad = symbc::check_source(app::face_sw_missing_reload(), spec);
      }
      out.emplace_back("symbc.correct", std::string{ok.consistent ? "consistent " : "inconsistent "} +
                                            std::to_string(ok.certificate.size()));
      out.emplace_back("symbc.buggy",
                       std::to_string(bad.violations.size()) + " " +
                           (bad.violations.empty() ? "-" : bad.violations[0].to_string()));
    }

    std::optional<rtl::Netlist> wrapper;
    {
      Span span{"rtl.build"};
      wrapper.emplace(app::build_wrapper_fsm());
    }
    const mc::ModelChecker checker{*wrapper};
    const auto properties = app::wrapper_properties_extended();
    for (const auto& prop : properties) {
      Span span{"mc.check"};
      const auto result = checker.check(prop);
      out.emplace_back("mc." + prop.name,
                       status_name(result.status) + " " + std::to_string(result.bound_used));
    }

    pcc::PccOptions pcc_opts;
    pcc_opts.bmc_bound = 8;
    pcc_opts.seed = pcc_seed_;
    {
      Span span{"pcc.wrapper"};
      add_pcc(out, "pcc.initial",
              pcc::check_property_coverage(*wrapper, app::wrapper_properties_initial(),
                                           pcc_opts));
    }
    {
      Span span{"pcc.wrapper"};
      add_pcc(out, "pcc.extended",
              pcc::check_property_coverage(*wrapper, properties, pcc_opts));
    }
    state_.reset();
    return out;
  }

 private:
  struct State {
    media::FaceDatabase db;
    core::TaskGraph graph;
  };
  std::uint64_t laerte_seed_;
  std::uint64_t pcc_seed_;
  std::optional<State> state_;
};

/// Media-free RTL fault grading: the level-4 formal stack alone.
class FaultGrading final : public Workload {
 public:
  explicit FaultGrading(std::uint64_t seed) : pcc_seed_{derive(seed, 0x9CCULL)} {}

  void setup() override {
    Span span{"rtl.build"};
    state_.emplace(State{app::build_root_rtl(), app::build_wrapper_fsm(),
                         app::build_distance_rtl(8, 16)});
  }

  Outputs iterate(Extras& extras) override {
    Outputs out;
    const auto& s = *state_;

    pcc::PccOptions root_opts;
    root_opts.bmc_bound = 4;
    root_opts.simulation_runs = 1;
    root_opts.simulation_cycles = 8;
    root_opts.seed = pcc_seed_;
    {
      Span span{"pcc.root"};
      const std::vector<mc::Property> props{mc::Property::invariant(
          "busy_done_exclusive", !(mc::Expr::signal("busy") && mc::Expr::signal("done")))};
      add_pcc(out, "pcc.root", pcc::check_property_coverage(s.root, props, root_opts));
    }

    pcc::PccOptions wrapper_opts;
    wrapper_opts.bmc_bound = 8;
    wrapper_opts.seed = pcc_seed_;
    const auto extended = app::wrapper_properties_extended();
    {
      Span span{"pcc.wrapper"};
      add_pcc(out, "pcc.initial",
              pcc::check_property_coverage(s.wrapper, app::wrapper_properties_initial(),
                                           wrapper_opts));
    }
    {
      Span span{"pcc.wrapper"};
      add_pcc(out, "pcc.extended",
              pcc::check_property_coverage(s.wrapper, extended, wrapper_opts));
    }

    {
      Span span{"mc.check_all"};
      const mc::ModelChecker checker{s.wrapper};
      const auto all = checker.check_all(extended);
      for (std::size_t i = 0; i < extended.size(); ++i) {
        out.emplace_back("mc." + extended[i].name,
                         status_name(all.results[i].status) + " " +
                             std::to_string(all.results[i].bound_used));
      }
    }

    {
      Span span{"atpg.sat_engine"};
      std::vector<std::pair<rtl::Net, bool>> faults;
      for (const auto ff : s.distance.flip_flops()) {
        faults.emplace_back(ff, false);
        faults.emplace_back(ff, true);
      }
      atpg::SatEngine::Options sat_opts;
      sat_opts.unroll = 3;
      atpg::SatEngine engine{s.distance, sat_opts};
      std::string detectable;
      for (const auto& r : engine.generate_tests(faults)) {
        detectable += r.test.has_value() ? '1' : '0';
        extras.sat_detected += r.test.has_value() ? 1.0 : 0.0;
      }
      extras.sat_faults += static_cast<double>(faults.size());
      out.emplace_back("sat.detectable", detectable);
    }
    state_.reset();
    return out;
  }

 private:
  struct State {
    rtl::Netlist root;
    rtl::Netlist wrapper;
    rtl::Netlist distance;
  };
  std::uint64_t pcc_seed_;
  std::optional<State> state_;
};

/// Design-space exploration at a fixed campaign pool: analytic sweep,
/// simulation grading of the short-list, and many cross-level campaigns
/// over generated platforms.
class ExploreCampaign final : public Workload {
 public:
  static constexpr int kPlatforms = 384;  ///< a third per size tier
  /// Platforms per L1-L3 campaign. One platform per campaign (three
  /// scenarios on a fresh pool each) made per-campaign thread start-up so
  /// large and so host-sensitive that run medians spread by 30%; eight
  /// keep 49 pool start-ups per iteration in view at a steady spread.
  static constexpr std::size_t kPlatformsPerCampaign = 8;
  static constexpr int kFrames = 8;
  static constexpr std::size_t kTopK = 6;

  explicit ExploreCampaign(std::uint64_t seed) : platform_base_{derive(seed, 0x6E4ULL)} {}

  [[nodiscard]] bool multithreaded() const override { return true; }

  void setup() override {
    std::optional<media::FaceDatabase> db;
    {
      Span span{"media.enroll"};
      db.emplace(media::FaceDatabase::enroll(12, 5));
    }
    state_.emplace(State{std::move(*db), {}, {}});
    state_->graph = app::face_task_graph(state_->db);
    {
      Span span{"app.profile_reference"};
      const auto profile = app::profile_reference(state_->db, 3);
      app::annotate_from_profile(state_->graph, profile, 3);
    }
    gen::SweepConfig sweep;
    sweep.base_seed = platform_base_;
    for (int i = 0; i < kPlatforms; ++i) {
      Span span{"gen.generate_platform"};
      state_->platforms.push_back(
          gen::generate_platform(sweep.seed_at(i), static_cast<gen::SizeTier>(i % 3)));
    }
  }

  Outputs iterate(Extras& extras) override {
    Outputs out;
    auto& s = *state_;
    const auto& db = s.db;
    const obs::Snapshot before = obs::Registry::instance().snapshot();

    core::Explorer::Options options;
    options.pinned_software = {"CAMERA", "DATABASE", "WINNER"};
    options.max_hw_tasks = 3;
    options.fpga_contexts = 2;
    const core::PlatformParams platform{};
    std::vector<core::DesignPoint> points;
    {
      Span span{"core.explore"};
      const core::Explorer explorer{s.graph, core::AnalyticModel{platform}, options};
      points = explorer.explore();
    }
    std::string ranked;
    for (const auto& p : points) ranked += p.label + "\n";
    out.emplace_back("explore.points", std::to_string(points.size()));
    out.emplace_back("explore.ranked_digest", hex(fnv(ranked)));

    exec::CampaignRunner::Options pool;
    pool.workers = kCampaignWorkers;
    const exec::CampaignRunner face_runner{
        [&db](const exec::Scenario&) { return std::make_unique<app::FaceStageRuntime>(db); },
        pool};
    const auto scorer = exec::simulation_scorer(face_runner, s.graph, platform, /*frames=*/4);
    {
      Span span{"core.grade_by_simulation"};
      points = core::Explorer::grade_by_simulation(
          std::move(points), kTopK,
          [&](const std::vector<core::DesignPoint>& batch) {
            Span campaign_span{"exec.campaign_run"};
            auto reports = scorer(batch);
            for (const auto& r : reports) extras.add_report(r);
            extras.add_campaign_workers(obs::Registry::instance().snapshot(),
                                        std::min<int>(kCampaignWorkers,
                                                      static_cast<int>(batch.size())));
            return reports;
          });
    }
    std::string graded;
    for (std::size_t i = 0; i < points.size() && i < kTopK; ++i) {
      graded += points[i].label + " " + exact(points[i].grade.frames_per_second) + "\n";
    }
    out.emplace_back("explore.graded_digest", hex(fnv(graded)));
    const auto* chosen = core::Explorer::best_under(points, 5.0, 2600.0, 0.0);
    out.emplace_back("explore.chosen", chosen == nullptr ? "-" : chosen->label);

    const exec::CampaignRunner synthetic_runner{gen::synthetic_runtime_factory(), pool};
    std::string verdicts;
    bool all_clean = true;
    obs::Snapshot last;
    for (std::size_t first = 0; first < s.platforms.size(); first += kPlatformsPerCampaign) {
      Span span{"exec.campaign_run"};
      std::vector<exec::Scenario> scenarios;
      for (std::size_t i = first; i < std::min(first + kPlatformsPerCampaign, s.platforms.size()); ++i) {
        auto more = gen::cross_level_scenarios_for(s.platforms[i], kFrames);
        scenarios.insert(scenarios.end(), more.begin(), more.end());
      }
      const auto campaign = synthetic_runner.run(scenarios);
      for (const auto& r : campaign.results) extras.add_report(r.report);
      extras.add_campaign_workers(campaign.metrics, campaign.workers);
      all_clean = all_clean && campaign.clean();
      verdicts += campaign.clean() ? '1' : '0';
      for (const auto& r : campaign.results) {
        verdicts += " " + hex(r.report.trace.fingerprint()) + " " +
                    exact(r.report.frames_per_second);
      }
      verdicts += "\n";
      last = campaign.metrics;
    }
    out.emplace_back("campaigns.clean_and_traces", hex(fnv(verdicts)));
    out.emplace_back("campaigns.all_clean", all_clean ? "1" : "0");

    // Deterministic (non-host) registry activity of this iteration.
    obs::Snapshot delta;
    for (const auto& e : last.entries) {
      if (e.is_gauge) continue;
      auto d = e;
      d.count -= before.counter(e.name);
      if (d.count != 0) delta.entries.push_back(d);
    }
    out.emplace_back("metrics.digest", hex(fnv(delta.to_json(false))));
    state_.reset();
    return out;
  }

 private:
  struct State {
    media::FaceDatabase db;
    core::TaskGraph graph;
    std::vector<gen::GeneratedPlatform> platforms;
  };
  std::uint64_t platform_base_;
  std::optional<State> state_;
};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "paper_flow") return std::make_unique<PaperFlow>(seed);
  if (name == "fault_grading") return std::make_unique<FaultGrading>(seed);
  if (name == "explore_campaign") return std::make_unique<ExploreCampaign>(seed);
  throw std::invalid_argument{"unknown workload '" + name + "'"};
}

// ---------------------------------------------------------- golden gate

Outputs read_golden(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"cannot read golden file " + path};
  Outputs out;
  std::string line;
  while (std::getline(in, line)) {
    const auto tab = line.find('\t');
    if (tab == std::string::npos) continue;
    out.emplace_back(line.substr(0, tab), line.substr(tab + 1));
  }
  return out;
}

void write_golden(const std::string& path, const Outputs& outputs) {
  std::ofstream out{path};
  for (const auto& [k, v] : outputs) out << k << '\t' << v << '\n';
  if (!out) throw std::runtime_error{"cannot write golden file " + path};
}

/// First difference between an iteration's outputs and the reference, or
/// empty when they agree.
std::string mismatch(const Outputs& got, const Outputs& want) {
  for (std::size_t i = 0; i < std::max(got.size(), want.size()); ++i) {
    if (i >= got.size()) return "missing " + want[i].first;
    if (i >= want.size()) return "unexpected " + got[i].first;
    if (got[i] != want[i]) {
      return got[i].first + " = '" + got[i].second + "', expected " + want[i].first +
             " = '" + want[i].second + "'";
    }
  }
  return "";
}

// ----------------------------------------------------------- host probe

/// A fixed branchy reference task (std::sort of a fixed pseudo-random
/// 128K-element array). It does the same work every time, so its time
/// tells a slow host regime from a slow program.
class HostProbe {
 public:
  HostProbe() : data_(128 * 1024) {
    std::uint64_t x = 0x243F6A8885A308D3ULL;
    for (auto& v : data_) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      v = static_cast<std::uint32_t>(x >> 33);
    }
  }
  double run_ms() {
    work_ = data_;
    const auto t0 = Clock::now();
    std::sort(work_.begin(), work_.end());
    const auto t1 = Clock::now();
    if (!std::is_sorted(work_.begin(), work_.end())) throw std::logic_error{"probe"};
    return ms_between(t0, t1);
  }

 private:
  std::vector<std::uint32_t> data_;
  std::vector<std::uint32_t> work_;
};

// ---------------------------------------------------------- CPU rotation

/// Moves one thread round-robin over every CPU it may use, one 20 ms slice
/// per CPU, until destroyed; then restores its affinity.
///
/// On a shared host each vCPU runs fast or slow for seconds at a time,
/// independently of the others (the same sort reads 11 ms on one vCPU and
/// 14 ms on another at the same moment). A single-threaded workload left
/// to the scheduler stays on one vCPU for long stretches, so its run
/// median depends on which vCPUs it happened to sit on. Rotating makes
/// every iteration sample all of them. Multithreaded workloads spread over
/// the vCPUs by themselves, and must not be rotated: threads they spawn
/// would inherit a one-CPU mask.
class CpuRotation {
 public:
  explicit CpuRotation(pthread_t target) : target_{target} {
    if (pthread_getaffinity_np(target_, sizeof original_, &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
    if (cpus_.size() > 1) thread_ = std::thread{[this] { rotate(); }};
  }
  ~CpuRotation() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
    if (!cpus_.empty()) pthread_setaffinity_np(target_, sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  void rotate() {
    for (std::size_t i = 0; !stop_; ++i) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[i % cpus_.size()], &one);
      pthread_setaffinity_np(target_, sizeof one, &one);
      std::this_thread::sleep_for(std::chrono::milliseconds{20});
    }
  }

  pthread_t target_;
  cpu_set_t original_{};
  std::vector<int> cpus_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  ///< declared last: it reads every member above
};

// ------------------------------------------------------------ statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least ten samples beyond it
/// (nearest-rank: the eleventh-slowest sample), as (percentile, value).
/// Runs with ten or fewer samples report their maximum as p100.
std::pair<double, double> tail(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= 10) return {100.0, n == 0 ? 0.0 : v.back()};
  return {100.0 * static_cast<double>(n - 10) / static_cast<double>(n), v[n - 11]};
}

std::string num(double v) {
  if (!std::isfinite(v)) throw std::runtime_error{"non-finite metric"};
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

// ------------------------------------------------------------------ run

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string golden_dir;
  bool write_golden = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--write-golden") {
      a.write_golden = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument{"missing value for " + flag};
    const std::string value = argv[++i];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--seconds") a.seconds = std::stod(value);
    else if (flag == "--trace") a.trace = value == "1";
    else if (flag == "--out") a.out_dir = value;
    else if (flag == "--golden") a.golden_dir = value;
    else throw std::invalid_argument{"unknown flag " + flag};
  }
  if (a.workload.empty()) throw std::invalid_argument{"--workload is required"};
  if (!(a.seconds > 0.0)) throw std::invalid_argument{"--seconds must be positive"};
  return a;
}

/// Registry counters of one iteration: after minus before.
std::map<std::string, double> counter_delta(const obs::Snapshot& before,
                                            const obs::Snapshot& after) {
  std::map<std::string, double> d;
  for (const auto& e : after.entries) {
    if (!e.is_gauge) d[e.name] = static_cast<double>(e.count - before.counter(e.name));
  }
  return d;
}

struct IterationSample {
  double setup_ms = 0.0;
  double iter_ms = 0.0;
  double cpu_ms = 0.0;
  double probe_ms = 0.0;
  bool traced = false;
  std::map<std::string, Tracer::Rollup> spans;
  std::map<std::string, double> counters;
  Extras extras;
};

int run(const Args& args) {
  auto& registry = obs::Registry::instance();
  const int base_level = registry.level();
  if (args.trace && base_level != 2) {
    throw std::runtime_error{"the traced run needs SYMBAD_OBS=2"};
  }
  auto workload = make_workload(args.workload, args.seed);
  HostProbe probe;

  const bool golden_seed = args.seed == kDefaultSeed && !args.golden_dir.empty();
  const std::string golden_path = args.golden_dir + "/" + args.workload + ".txt";

  // Warm-up: absorbs process-level lazy initialisation; its outputs are the
  // reference for seeds without stored golden values.
  workload->setup();
  Extras warm_extras;
  const Outputs warm = workload->iterate(warm_extras);
  if (args.write_golden) {
    write_golden(golden_path, warm);
    std::printf("wrote %s (%zu values)\n", golden_path.c_str(), warm.size());
  }
  const Outputs reference = golden_seed ? read_golden(golden_path) : warm;
  bool warm_ok = true;
  if (const auto diff = mismatch(warm, reference); !diff.empty()) {
    std::printf("warm-up iteration FAILED golden gate: %s\n", diff.c_str());
    warm_ok = false;
  }

  // Every completed iteration is a timing sample; one whose outputs differ
  // from the reference also counts as failed. A throw leaves no sample.
  std::vector<IterationSample> samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::optional<CpuRotation> rotation;
  if (!workload->multithreaded()) rotation.emplace(pthread_self());
  const auto start = Clock::now();
  for (std::size_t i = 0; ms_between(start, Clock::now()) < args.seconds * 1e3; ++i) {
    ++attempted;
    IterationSample s;
    // The traced run alternates traced and untraced iterations, so the
    // tracing overhead is measured under the same host regime.
    s.traced = args.trace && i % 2 == 0;
    if (args.trace) registry.set_level(s.traced ? 2 : 1);
    g_tracer.enabled = s.traced;
    g_tracer.iteration.clear();
    s.probe_ms = probe.run_ms();
    if (s.traced) registry.reset();
    const obs::Snapshot before = registry.snapshot();
    const double cpu0 = cpu_ms_now();
    const auto t0 = Clock::now();
    std::string error;
    bool completed = false;
    try {
      Outputs outputs;
      {
        Span span{"setup"};
        workload->setup();
      }
      const auto t1 = Clock::now();
      {
        Span span{"iteration"};
        outputs = workload->iterate(s.extras);
      }
      const auto t2 = Clock::now();
      s.setup_ms = ms_between(t0, t1);
      s.iter_ms = ms_between(t1, t2);
      completed = true;
      error = mismatch(outputs, reference);
    } catch (const std::exception& e) {
      error = std::string{"exception: "} + e.what();
    }
    s.cpu_ms = cpu_ms_now() - cpu0;
    if (!error.empty()) {
      ++failed;
      std::printf("iteration %zu FAILED: %s\n", i, error.c_str());
    }
    if (!completed) continue;
    if (s.traced) {
      s.spans = g_tracer.iteration;
      s.counters = counter_delta(before, registry.snapshot());
    }
    samples.push_back(std::move(s));
  }
  const double wall_s = ms_between(start, Clock::now()) / 1e3;
  rotation.reset();
  g_tracer.enabled = false;
  {
    const std::string path = args.out_dir + "/" + args.workload + ".samples.csv";
    std::ofstream csv{path};
    csv << "traced,setup_ms,iter_ms,cpu_ms,probe_ms\n";
    for (const auto& s : samples) {
      csv << s.traced << ',' << s.setup_ms << ',' << s.iter_ms << ',' << s.cpu_ms << ','
          << s.probe_ms << '\n';
    }
    if (!csv) throw std::runtime_error{"cannot write " + path};
  }
  if (samples.empty()) throw std::runtime_error{"no iteration completed"};

  auto column = [&](auto field, bool traced_only) {
    std::vector<double> v;
    for (const auto& s : samples) {
      if (!traced_only || s.traced) v.push_back(field(s));
    }
    return v;
  };
  const auto iter_ms = column([](const IterationSample& s) { return s.iter_ms; }, false);
  const auto [tail_p, tail_ms] = tail(iter_ms);
  const double probe_ms =
      median(column([](const IterationSample& s) { return s.probe_ms; }, false));

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s",
         {median(column([](const IterationSample& s) { return s.setup_ms; }, false)) / 1e3,
          "s"}},
        {"iter_ms_p50", {median(iter_ms), "ms"}},
        {"iter_ms_tail", {tail_ms, "ms"}},
        {"cpu_ms_per_iter",
         {median(column([](const IterationSample& s) { return s.cpu_ms; }, false)), "ms"}},
        {"peak_rss_mb", {peak_rss_mb(), "MB"}},
    };
  } else {
    const auto traced = [&](auto field) { return median(column(field, true)); };
    const auto span_ms = [&](const char* name) {
      return traced([name](const IterationSample& s) {
        const auto it = s.spans.find(name);
        return it == s.spans.end() ? 0.0 : it->second.total_ms;
      });
    };
    const auto counter = [&](const char* name) {
      return traced([name](const IterationSample& s) {
        const auto it = s.counters.find(name);
        return it == s.counters.end() ? 0.0 : it->second;
      });
    };
    const auto ratio = [](double a, double b) { return b == 0.0 ? 0.0 : a / b; };
    const auto extra = [&](auto field) {
      return traced([field](const IterationSample& s) { return field(s.extras); });
    };
    std::vector<double> plain;
    for (const auto& s : samples) {
      if (!s.traced) plain.push_back(s.iter_ms);
    }
    const double traced_p50 = traced([](const IterationSample& s) { return s.iter_ms; });
    // Share of the iteration body no named span covers.
    const double other_pct = traced([](const IterationSample& s) {
      const auto it = s.spans.find("iteration");
      return it == s.spans.end() || it->second.total_ms == 0.0
                 ? 0.0
                 : 100.0 * it->second.self_ms / it->second.total_ms;
    });
    metrics = {
        {"atpg.laerte_grade.ms", {span_ms("atpg.laerte_grade"), "ms"}},
        {"atpg.laerte_genetic.ms", {span_ms("atpg.laerte_genetic"), "ms"}},
        {"atpg.laerte_init.ms", {span_ms("atpg.laerte_init"), "ms"}},
        {"atpg.laerte_seeded_bug.ms", {span_ms("atpg.laerte_seeded_bug"), "ms"}},
        {"atpg.bit_faults", {extra([](const Extras& e) { return e.laerte_bit_faults; }), "count"}},
        {"atpg.bit_fault_detect_ratio",
         {extra([&](const Extras& e) { return ratio(e.laerte_bit_detected, e.laerte_bit_faults); }),
          "ratio"}},
        {"app.profile_reference.ms", {span_ms("app.profile_reference"), "ms"}},
        {"media.enroll.ms", {span_ms("media.enroll"), "ms"}},
        {"core.system_model_run.l1.ms", {span_ms("core.system_model_run.l1"), "ms"}},
        {"core.system_model_run.l2.ms", {span_ms("core.system_model_run.l2"), "ms"}},
        {"core.system_model_run.l3.ms", {span_ms("core.system_model_run.l3"), "ms"}},
        {"sim.kernel.callbacks", {counter("sim.kernel.callbacks"), "count"}},
        {"sim.kernel.delta_cycles", {counter("sim.kernel.delta_cycles"), "count"}},
        {"sim.host_cycles_per_s",
         {extra([&](const Extras& e) { return ratio(e.sim_cycles, e.sim_wall_s); }), "1/s"}},
        {"tlm.bus_transactions", {extra([](const Extras& e) { return e.bus_transactions; }), "count"}},
        {"fpga.reconfigurations", {extra([](const Extras& e) { return e.reconfigurations; }), "count"}},
        {"pcc.root.ms", {span_ms("pcc.root"), "ms"}},
        {"pcc.wrapper.ms", {span_ms("pcc.wrapper"), "ms"}},
        {"pcc.faults_total", {counter("pcc.faults_total"), "count"}},
        {"pcc.lint_pruned", {counter("pcc.lint_pruned"), "count"}},
        {"pcc.prune_ratio",
         {ratio(counter("pcc.lint_pruned"), counter("pcc.faults_total")), "ratio"}},
        {"pcc.sim_detect_ratio",
         {ratio(counter("pcc.detected_by_simulation"), counter("pcc.faults_total")), "ratio"}},
        {"pcc.encoded_vars", {counter("pcc.encoded_vars"), "count"}},
        {"pcc.incremental_reopts", {counter("pcc.incremental_reopts"), "count"}},
        {"mc.check.ms", {span_ms("mc.check"), "ms"}},
        {"mc.check_all.ms", {span_ms("mc.check_all"), "ms"}},
        {"mc.frames_encoded", {counter("mc.frames_encoded"), "count"}},
        {"mc.portfolio.sat_conflicts", {counter("mc.portfolio.sat_conflicts"), "count"}},
        {"sat.solves", {counter("sat.solves"), "count"}},
        {"sat.conflicts", {counter("sat.conflicts"), "count"}},
        {"sat.propagations", {counter("sat.propagations"), "count"}},
        {"sat.decisions", {counter("sat.decisions"), "count"}},
        {"opt.runs", {counter("opt.runs"), "count"}},
        {"opt.gates_after", {counter("opt.gates_after"), "count"}},
        {"opt.sweep_yield",
         {ratio(counter("opt.sweep_proved"), counter("opt.sweep_candidates")), "ratio"}},
        {"lint.analyses", {counter("lint.analyses"), "count"}},
        {"lint.rules_checked", {counter("lint.rules_checked"), "count"}},
        {"atpg.sat_engine.ms", {span_ms("atpg.sat_engine"), "ms"}},
        {"atpg.sat_detect_ratio",
         {extra([&](const Extras& e) { return ratio(e.sat_detected, e.sat_faults); }), "ratio"}},
        {"lpv.ms", {span_ms("lpv"), "ms"}},
        {"symbc.check_source.ms", {span_ms("symbc.check_source"), "ms"}},
        {"exec.campaign_run.ms", {span_ms("exec.campaign_run"), "ms"}},
        {"exec.campaigns", {counter("exec.campaigns"), "count"}},
        {"exec.scenarios", {counter("exec.scenarios"), "count"}},
        {"exec.queue_wait_ms", {extra([](const Extras& e) { return e.queue_wait_s * 1e3; }), "ms"}},
        {"exec.worker_busy_ratio",
         {extra([&](const Extras& e) {
            return ratio(e.worker_wall_s - e.queue_wait_s, e.worker_wall_s);
          }),
          "ratio"}},
        {"core.explore.ms", {span_ms("core.explore"), "ms"}},
        {"core.grade_by_simulation.ms", {span_ms("core.grade_by_simulation"), "ms"}},
        {"gen.generate_platform.ms", {span_ms("gen.generate_platform"), "ms"}},
        {"rtl.build.ms", {span_ms("rtl.build"), "ms"}},
        {"other.pct", {other_pct, "%"}},
        {"host.probe_ms", {probe_ms, "ms"}},
        {"obs.trace_overhead_pct", {100.0 * (traced_p50 / median(plain) - 1.0), "%"}},
    };

    // Per-span rollup over every traced iteration, and both Chrome traces.
    std::map<std::string, Tracer::Rollup> rollup;
    std::size_t traced_iterations = 0;
    for (const auto& s : samples) {
      if (!s.traced) continue;
      ++traced_iterations;
      for (const auto& [name, r] : s.spans) {
        auto& acc = rollup[name];
        acc.count += r.count;
        acc.total_ms += r.total_ms;
        acc.self_ms += r.self_ms;
      }
    }
    std::printf("span rollup over %zu traced iterations (ms per iteration):\n",
                traced_iterations);
    std::printf("  %-30s %8s %10s %10s\n", "span", "count", "total", "self");
    const double n = static_cast<double>(traced_iterations);
    for (const auto& [name, r] : rollup) {
      std::printf("  %-30s %8.1f %10.3f %10.3f\n",
                  name == "iteration" ? "other (iteration self)" : name.c_str(),
                  static_cast<double>(r.count) / n, r.total_ms / n, r.self_ms / n);
    }
    std::printf("registry counter deltas per traced iteration (median):\n");
    std::map<std::string, std::vector<double>> deltas;
    for (const auto& s : samples) {
      for (const auto& [name, v] : s.counters) deltas[name].push_back(v);
    }
    for (const auto& [name, v] : deltas) {
      if (name.rfind("host.", 0) != 0) std::printf("  %-36s %.0f\n", name.c_str(), median(v));
    }

    const std::string bench_trace = args.out_dir + "/" + args.workload + ".bench_trace.json";
    std::ofstream os{bench_trace};
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < g_tracer.events.size(); ++i) {
      const auto& e = g_tracer.events[i];
      os << (i == 0 ? "" : ",") << "\n{\"name\":\"" << e.name
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":" << num(e.start_ms * 1e3)
         << ",\"dur\":" << num(e.dur_ms * 1e3) << ",\"args\":{\"depth\":" << e.depth << "}}";
    }
    os << "\n]}\n";
    if (!os) throw std::runtime_error{"cannot write " + bench_trace};
    // The program's own spans of the last traced iteration (the registry is
    // reset before every traced iteration).
    registry.set_level(2);
    registry.write_chrome_trace_file(args.out_dir + "/" + args.workload +
                                     ".program_trace.json");
    std::printf("chrome traces: %s, %s.program_trace.json\n", bench_trace.c_str(),
                args.workload.c_str());
  }

  std::printf("%s seed %llu: %llu iterations (%zu measured) in %.1f s, %llu failed; "
              "tail = p%g of %zu samples; host.probe_ms %.3f\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(attempted), samples.size(), wall_s,
              static_cast<unsigned long long>(failed), tail_p, iter_ms.size(), probe_ms);
  for (const auto& [name, mv] : metrics) {
    std::printf("  %-32s %14.4f %s\n", name.c_str(), mv.first, mv.second.c_str());
  }

  std::ostringstream result;
  result << "{\"correct\": " << (failed == 0 && warm_ok ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    result << (i == 0 ? "" : ", ") << "\"" << metrics[i].first
           << "\": {\"value\": " << num(metrics[i].second.first) << ", \"unit\": \""
           << metrics[i].second.second << "\"}";
  }
  result << "}, \"tail_percentile\": " << num(tail_p) << ", \"samples\": " << iter_ms.size()
         << ", \"host_probe_ms\": " << num(probe_ms) << ", \"workers\": " << kCampaignWorkers
         << "}";
  std::printf("%s\n", result.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flow_bench: %s\n", e.what());
    return 2;
  }
}
