#include "exec/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/env.hpp"

namespace symbad::exec {

namespace {

// Per-worker attribution (which worker claimed how many scenarios, how long
// it ran, how long it sat between claims). Worker assignment depends on
// scheduling, so all of it is host.* by construction.
struct WorkerObs {
  obs::Counter scenarios;
  obs::Gauge wall_seconds;
  obs::Gauge queue_wait_seconds;
};

WorkerObs worker_obs(int worker_id) {
  auto& registry = obs::Registry::instance();
  const std::string prefix = "host.exec.worker" + std::to_string(worker_id);
  return WorkerObs{
      registry.counter(prefix + ".scenarios"),
      registry.gauge(prefix + ".wall_seconds"),
      registry.gauge(prefix + ".queue_wait_seconds"),
  };
}

void compute_agreements(CampaignReport& report) {
  // Group members ordered by (level, submission index): each consecutive
  // pair is an adjacent-level (or same-level reproducibility) check.
  std::map<std::string, std::vector<const ScenarioResult*>> groups;
  for (const auto& r : report.results) {
    if (!r.group.empty()) groups[r.group].push_back(&r);
  }
  for (auto& [group, members] : groups) {
    std::sort(members.begin(), members.end(),
              [](const ScenarioResult* a, const ScenarioResult* b) {
                if (a->level != b->level) return a->level < b->level;
                return a->index < b->index;
              });
    for (std::size_t i = 0; i + 1 < members.size(); ++i) {
      const ScenarioResult& lo = *members[i];
      const ScenarioResult& hi = *members[i + 1];
      AgreementVerdict verdict;
      verdict.group = group;
      verdict.lower_index = lo.index;
      verdict.higher_index = hi.index;
      verdict.lower_level = lo.level;
      verdict.higher_level = hi.level;
      if (!lo.ok || !hi.ok) {
        verdict.agree = false;
        verdict.detail = "scenario failed: " + (lo.ok ? hi.error : lo.error);
      } else if (auto diff = sim::Trace::first_divergence(
                     lo.report.trace, hi.report.trace, "lower level",
                     "higher level")) {
        verdict.agree = false;
        verdict.detail = *diff;
      } else {
        verdict.agree = true;
      }
      report.agreements.push_back(std::move(verdict));
    }
  }
}

}  // namespace

std::string CampaignReport::to_string() const {
  std::ostringstream os;
  os << results.size() << " scenarios on " << workers << " worker(s): "
     << (results.size() - failures()) << " ok, " << failures() << " failed; "
     << agreements.size() << " agreement check(s), "
     << (all_agree() ? "all levels agree" : "DISAGREEMENT") << "; "
     << scenarios_per_second << " scenarios/s";
  if (!trace_error.empty()) os << "; trace export failed: " << trace_error;
  return os.str();
}

CampaignRunner::CampaignRunner(RuntimeFactory factory)
    : CampaignRunner{std::move(factory), Options{}} {}

CampaignRunner::CampaignRunner(RuntimeFactory factory, Options options)
    : factory_{std::move(factory)}, options_{options} {
  if (!factory_) throw std::invalid_argument{"CampaignRunner: empty runtime factory"};
  if (options_.workers < 0) {
    throw std::invalid_argument{"CampaignRunner: negative worker count"};
  }
}

int CampaignRunner::resolve_workers(int requested) {
  int workers = requested;
  if (workers <= 0) {
    // Strict parse (core::parse_env_int): `atoi` used to map garbage
    // ("abc") and nonsense ("-3") to a silent hardware-concurrency
    // fallback — a misconfigured campaign must fail loudly, not run with
    // a surprise worker count.
    if (const auto parsed = core::parse_env_int("SYMBAD_CAMPAIGN_WORKERS", 1, 64)) {
      workers = static_cast<int>(*parsed);
    }
  }
  if (workers <= 0) workers = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(workers, 1, 64);
}

CampaignReport CampaignRunner::run(const std::vector<Scenario>& scenarios) const {
  // SpanScope used directly (not OBS_SPAN) because this span must close
  // *before* the post-join trace export below — a macro-scoped span would
  // still be open when the file is written and never appear in it.
  std::optional<obs::SpanScope> campaign_span{std::in_place, "exec.campaign"};
  CampaignReport report;
  report.results.resize(scenarios.size());
  const int scenario_cap =
      static_cast<int>(std::max<std::size_t>(scenarios.size(), 1));
  const int workers = std::min(resolve_workers(options_.workers), scenario_cap);
  report.workers = workers;

  std::vector<std::exception_ptr> errors(scenarios.size());
  std::vector<std::exception_ptr> worker_errors(static_cast<std::size_t>(workers));
  std::vector<verif::CoverageDb> worker_coverage(
      options_.collect_coverage ? static_cast<std::size_t>(workers) : 0);

  std::atomic<std::size_t> next{0};
  const auto wall_start = std::chrono::steady_clock::now();

  auto worker_body = [&](int worker_id) {
    // Per-scenario failures land in `errors` below; this outer guard covers
    // the worker's own setup and teardown (obs registration, the coverage
    // scope), whose exceptions would otherwise escape the thread entry
    // point and terminate the process. Captured failures rethrow on the
    // main thread after the join.
    try {
      // Coverage instrumentation is routed through a thread-local active
      // database, so each worker installs its own; merged after the join.
      std::optional<verif::CoverageDb::Scope> cov_scope;
      if (options_.collect_coverage) {
        cov_scope.emplace(worker_coverage[static_cast<std::size_t>(worker_id)]);
      }
      // Tag spans from this thread with the worker id (Chrome-trace tid)
      // and attribute claimed scenarios / busy vs queue-wait time under
      // host.*.
      const obs::ScopedWorkerId obs_worker{worker_id};
      const WorkerObs worker_metrics = worker_obs(worker_id);
      const auto worker_start = std::chrono::steady_clock::now();
      std::chrono::steady_clock::duration busy{};
      OBS_SPAN("exec.worker");
      while (true) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= scenarios.size()) break;
        OBS_SPAN("exec.scenario");
        worker_metrics.scenarios.inc();
        const auto scenario_start = std::chrono::steady_clock::now();
        const Scenario& scenario = scenarios[i];
        ScenarioResult& result = report.results[i];
        result.name = scenario.name.empty() ? "scenario#" + std::to_string(i)
                                            : scenario.name;
        result.group = scenario.group;
        result.index = i;
        result.level = level_number(scenario.level);
        try {
          auto runtime = factory_(scenario);
          if (runtime == nullptr) {
            throw std::logic_error{"campaign: runtime factory returned null"};
          }
          core::SystemModel model{scenario.graph, scenario.partition, *runtime,
                                  scenario.params, scenario.level};
          result.report = model.run(scenario.frames);
          result.ok = true;
        } catch (...) {
          errors[i] = std::current_exception();
        }
        if (errors[i] != nullptr) {
          try {
            std::rethrow_exception(errors[i]);
          } catch (const std::exception& e) {
            result.error = e.what();
          } catch (...) {
            result.error = "unknown error";
          }
        }
        busy += std::chrono::steady_clock::now() - scenario_start;
      }
      const auto worker_wall = std::chrono::steady_clock::now() - worker_start;
      worker_metrics.wall_seconds.set(
          std::chrono::duration<double>(worker_wall).count());
      worker_metrics.queue_wait_seconds.set(
          std::chrono::duration<double>(worker_wall - busy).count());
    } catch (...) {
      worker_errors[static_cast<std::size_t>(worker_id)] = std::current_exception();
    }
  };

  if (workers == 1) {
    worker_body(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) pool.emplace_back(worker_body, w);
    for (auto& t : pool) t.join();
  }

  // A worker-level failure (setup/teardown, not a scenario) means part of
  // the campaign silently never ran: propagate it here, on the main thread,
  // regardless of Options::rethrow_errors.
  for (auto& error : worker_errors) {
    if (error != nullptr) std::rethrow_exception(error);
  }

  const auto wall_end = std::chrono::steady_clock::now();
  report.wall_seconds_total =
      std::chrono::duration<double>(wall_end - wall_start).count();
  if (report.wall_seconds_total > 0.0 && !scenarios.empty()) {
    report.scenarios_per_second =
        static_cast<double>(scenarios.size()) / report.wall_seconds_total;
  }

  // Deterministic campaign counters are scheduling-independent sums, so
  // they stay byte-identical across worker counts; everything timed lives
  // in the `host.` namespace.
  obs::counter<"exec.campaigns">().inc();
  obs::counter<"exec.scenarios">().add(scenarios.size());
  obs::counter<"exec.scenario_failures">().add(report.failures());
  obs::gauge<"host.exec.wall_seconds">().add(report.wall_seconds_total);
  obs::gauge<"host.exec.scenarios_per_second">().set(report.scenarios_per_second);

  if (options_.collect_coverage) {
    verif::CoverageDb merged;
    for (const auto& db : worker_coverage) merged.merge_from(db);
    report.coverage = merged.report();
    report.coverage_modules = merged.modules().size();
  }

  compute_agreements(report);
  obs::counter<"exec.agreement_checks">().add(report.agreements.size());
  obs::counter<"exec.agreement_failures">().add(static_cast<std::uint64_t>(
      std::count_if(report.agreements.begin(), report.agreements.end(),
                    [](const AgreementVerdict& v) { return !v.agree; })));

  // Snapshot after the pool joined (every worker shard folded or visible)
  // and auto-export the span timeline when SYMBAD_OBS_TRACE is set — this
  // is the natural post-join point the trace writer documents.
  campaign_span.reset();
  report.metrics = obs::Registry::instance().snapshot();
  try {
    obs::Registry::instance().write_trace_if_configured();
  } catch (const std::exception& e) {
    // A bad SYMBAD_OBS_TRACE path must not discard a finished campaign:
    // record the export failure on the report instead of throwing it.
    report.trace_error = e.what();
  }

  if (options_.rethrow_errors) {
    for (auto& error : errors) {
      if (error != nullptr) std::rethrow_exception(error);
    }
  }
  return report;
}

// ------------------------------------------------- explorer integration

std::vector<Scenario> scenarios_for_points(const std::vector<core::DesignPoint>& points,
                                           const core::TaskGraph& graph,
                                           const core::PlatformParams& params,
                                           int frames) {
  std::vector<Scenario> scenarios;
  scenarios.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& point = points[i];
    Scenario s;
    s.name = point.label.empty() ? "point#" + std::to_string(i) : point.label;
    s.graph = graph;
    s.partition = point.partition;
    s.level = point.partition.contexts().empty() ? core::ModelLevel::timed_platform
                                                 : core::ModelLevel::reconfigurable;
    s.params = params;
    s.frames = frames;
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

core::SimulationScorer simulation_scorer(const CampaignRunner& runner,
                                         const core::TaskGraph& graph,
                                         const core::PlatformParams& params,
                                         int frames) {
  // Everything is captured by value (the runner copy is a std::function plus
  // options): a SimulationScorer is made to be stored and called later, so
  // it must not dangle when the arguments were temporaries.
  return [runner, graph, params, frames](const std::vector<core::DesignPoint>& points) {
    const auto campaign = runner.run(scenarios_for_points(points, graph, params, frames));
    std::vector<core::PerformanceReport> reports;
    reports.reserve(campaign.results.size());
    for (const auto& r : campaign.results) {
      if (!r.ok) {
        throw std::runtime_error{"simulation grading failed for '" + r.name +
                                 "': " + r.error};
      }
      reports.push_back(r.report);
    }
    return reports;
  };
}

}  // namespace symbad::exec
