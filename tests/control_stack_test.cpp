// Single-stack runs of the one sense-actuate loop: its two period blocks
// (advance_period, sample_scan), open-loop monitoring (null controller),
// the stack-wide thermal guard (stack_wide over gating) and the stack-wide
// DVFS governor (stack_wide over dvfs).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "control/eval.hpp"
#include "control/policies.hpp"
#include "core/health_supervisor.hpp"
#include "core/pt_sensor.hpp"
#include "process/variation.hpp"
#include "ptsim/stats.hpp"

namespace tsvpt::control {
namespace {

/// One sensor per die at the die centre, on a 4-die stack.
struct StackFixture {
  thermal::StackConfig cfg = thermal::StackConfig::four_die_stack();
  thermal::ThermalNetwork network{cfg};
  std::unique_ptr<core::StackMonitor> monitor;

  explicit StackFixture(std::uint64_t variation_seed = 5,
                        std::uint64_t monitor_seed = 44) {
    std::vector<core::SensorSite> sites =
        core::StackMonitor::uniform_sites(cfg, 1, 1);
    const process::VariationModel model{device::Technology::tsmc65_like(),
                                        {sites[0].location}};
    Rng rng{variation_seed};
    for (auto& site : sites) site.vt_delta = model.sample_die(rng).at(0);
    monitor = std::make_unique<core::StackMonitor>(
        &network, core::PtSensor::Config{}, sites, monitor_seed);
  }
};

thermal::Workload uniform_phases(
    const std::vector<std::pair<double, double>>& watts_and_seconds) {
  std::vector<thermal::WorkloadPhase> phases;
  for (const auto& [watts, seconds] : watts_and_seconds) {
    thermal::WorkloadPhase phase;
    phase.name = "phase";
    phase.duration = Second{seconds};
    phase.directives.push_back({thermal::PowerDirective::Kind::kUniform, 0,
                                Watt{watts}, {}, Meter{0.0}});
    phases.push_back(phase);
  }
  return thermal::Workload{phases};
}

/// Every reading of an open-loop run, scan by scan.
std::vector<std::vector<core::StackMonitor::SiteReading>> record(
    StackFixture& fx, const thermal::Workload& workload, EvalConfig eval,
    std::uint64_t seed) {
  std::vector<std::vector<core::StackMonitor::SiteReading>> scans;
  eval.on_scan = [&](std::uint64_t, Second,
                     const std::vector<core::StackMonitor::SiteReading>& rs,
                     const Actuation& act) {
    EXPECT_TRUE(act.dies.empty());  // open loop holds no actuation
    scans.push_back(rs);
  };
  const EvalResult result =
      run_closed_loop(fx.network, workload, *fx.monitor, nullptr, eval, seed);
  EXPECT_EQ(result.stats.decisions, 0u);
  return scans;
}

// --------------------------------------------------------- period blocks --

TEST(ControlPeriod, OpenLoopAdvanceMatchesTheRawWorkloadMap) {
  // A period that straddles a phase edge: each substep must program the map
  // for its own start time, exactly as stepping the plant by hand does.
  const thermal::Workload workload = uniform_phases({{4.0, 3e-3}, {0.5, 1.0}});
  StackFixture fx;
  StackFixture by_hand;
  const Second step{1e-3};
  const Second period{5e-3};
  for (int k = 0; k < 3; ++k) {
    const Second t0{period.value() * k};
    EXPECT_EQ(advance_period(fx.network, workload, nullptr, t0, period, step)
                  .value(),
              period.value());
    for (int s = 0; s < 5; ++s) {
      workload.apply(by_hand.network, Second{t0.value() + step.value() * s});
      by_hand.network.step(step);
    }
  }
  EXPECT_EQ(fx.network.temperatures(), by_hand.network.temperatures());
}

TEST(ControlPeriod, AdvanceNotesEverySubstepAndStopsWhereAsked) {
  StackFixture fx;
  const thermal::Workload workload = uniform_phases({{3.0, 1.0}});
  workload.apply(fx.network, Second{0.0});
  fx.network.set_uniform_temperature(fx.cfg.ambient);
  Controller controller{Controller::Config{}, fx.cfg.die_count()};

  // 5 ms in 2 ms substeps: 2 + 2 + 1, the stop hook sees each one.
  std::vector<double> seen;
  const auto record_max = [&](Celsius max_true) {
    seen.push_back(max_true.value());
    return false;
  };
  EXPECT_DOUBLE_EQ(advance_period(fx.network, workload, &controller,
                                  Second{0.0}, Second{5e-3}, Second{2e-3},
                                  record_max)
                       .value(),
                   5e-3);
  ASSERT_EQ(seen.size(), 3u);
  const Controller::Stats after_one = controller.stats();
  EXPECT_EQ(after_one.peak_true_c, *std::max_element(seen.begin(), seen.end()));
  EXPECT_GT(after_one.energy_j, 0.0);
  EXPECT_GT(after_one.work_done, 0.0);
  EXPECT_EQ(after_one.decisions, 0u);  // advancing never decides

  // A stop on the second substep ends the period there.
  std::size_t calls = 0;
  const Second advanced = advance_period(
      fx.network, workload, &controller, Second{5e-3}, Second{5e-3},
      Second{2e-3}, [&](Celsius) { return ++calls == 2; });
  EXPECT_EQ(calls, 2u);
  EXPECT_DOUBLE_EQ(advanced.value(), 4e-3);
  EXPECT_GT(controller.stats().energy_j, after_one.energy_j);
}

TEST(ControlPeriod, SampleScanConvertsOnlyTheSitesTheSupervisorWants) {
  StackFixture fx;
  const thermal::Workload workload = uniform_phases({{2.0, 1.0}});
  workload.apply(fx.network, Second{0.0});
  fx.network.set_temperatures(fx.network.steady_state());
  Rng noise{11};
  fx.monitor->calibrate_all(&noise);

  // Unsupervised: every site converts, and the raw hook sees what is served.
  std::vector<core::StackMonitor::SiteReading> raw_seen;
  const auto keep_raw = [&](std::vector<core::StackMonitor::SiteReading>& rs) {
    raw_seen = rs;
  };
  const auto plain = sample_scan(*fx.monitor, nullptr, noise, keep_raw);
  ASSERT_EQ(plain.size(), 4u);
  ASSERT_EQ(raw_seen.size(), 4u);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].site_index, i);
    EXPECT_GT(plain[i].energy.value(), 0.0);
    EXPECT_EQ(plain[i].sensed.value(), raw_seen[i].sensed.value());
  }

  // Site 2 goes dead: the supervisor pulls it from duty, after which it is
  // converted only on probe scans and otherwise costs nothing.
  const std::size_t dead = 2;
  for (std::size_t r = 0; r < core::kRoCount; ++r) {
    fx.monitor->sensor(dead).inject_fault(static_cast<core::RoRole>(r),
                                          core::RoFault::kDead);
  }
  core::HealthSupervisor supervisor{core::HealthSupervisor::Config{}};
  std::vector<core::HealthSupervisor::Transition> transitions;
  std::size_t skipped_scans = 0;
  for (int scan = 0; scan < 12; ++scan) {
    const bool wanted = supervisor.wants_sample(dead);
    const auto served = sample_scan(*fx.monitor, &supervisor, noise,
                                    keep_raw, &transitions);
    ASSERT_EQ(served.size(), 4u);
    ASSERT_EQ(raw_seen.size(), 4u);
    for (std::size_t i = 0; i < served.size(); ++i) {
      EXPECT_EQ(served[i].site_index, i);
      if (i != dead) {
        EXPECT_GT(raw_seen[i].energy.value(), 0.0);
      }
    }
    if (!wanted) {
      ++skipped_scans;
      EXPECT_TRUE(raw_seen[dead].degraded);
      EXPECT_EQ(raw_seen[dead].energy.value(), 0.0);  // no conversion
      EXPECT_EQ(raw_seen[dead].truth.value(),
                fx.monitor->truth_at(dead).value());
    }
    EXPECT_TRUE(served[dead].degraded || wanted);
  }
  EXPECT_GT(skipped_scans, 0u);
  EXPECT_NE(supervisor.state(dead), core::HealthState::kHealthy);
  ASSERT_FALSE(transitions.empty());
  for (const auto& t : transitions) EXPECT_EQ(t.site_index, dead);
}

// ------------------------------------------------------------- open loop --

EvalConfig session_config() {
  EvalConfig eval;
  eval.sample_period = Second{5e-3};
  eval.thermal_step = Second{1e-3};
  eval.max_duration = Second{60e-3};
  eval.start_at_steady_state = true;
  return eval;
}

TEST(OpenLoop, ProducesExpectedSampleCount) {
  StackFixture fx;
  const thermal::Workload workload = thermal::Workload::burst_idle(
      fx.cfg, Watt{2.0}, Watt{0.2}, Second{20e-3}, 3);
  const auto scans = record(fx, workload, session_config(), 7);
  EXPECT_EQ(scans.size(), 12u);
  EXPECT_EQ(scans.front().size(), 4u);
}

TEST(OpenLoop, ScanKIsTakenAfterKPlusOnePeriods) {
  // Advance, then scan: no scan at t = 0, the last one at the time cap.
  StackFixture fx;
  const thermal::Workload workload = uniform_phases({{1.0, 1.0}});
  EvalConfig eval = session_config();
  std::vector<std::uint64_t> indices;
  std::vector<double> times;
  eval.on_scan = [&](std::uint64_t scan, Second time,
                     const std::vector<core::StackMonitor::SiteReading>&,
                     const Actuation&) {
    indices.push_back(scan);
    times.push_back(time.value());
  };
  const EvalResult result =
      run_closed_loop(fx.network, workload, *fx.monitor, nullptr, eval, 2);
  ASSERT_EQ(times.size(), 12u);
  for (std::size_t k = 0; k < times.size(); ++k) {
    EXPECT_EQ(indices[k], k);
    EXPECT_NEAR(times[k],
                eval.sample_period.value() * static_cast<double>(k + 1), 1e-12);
  }
  EXPECT_EQ(result.duration.value(), times.back());
  EXPECT_NEAR(result.duration.value(), eval.max_duration.value(), 1e-12);
  EXPECT_FALSE(result.completed);
  EXPECT_FALSE(result.runaway);
}

TEST(OpenLoop, TrackingErrorsSmall) {
  StackFixture fx;
  const thermal::Workload workload = thermal::Workload::burst_idle(
      fx.cfg, Watt{2.0}, Watt{0.2}, Second{20e-3}, 3);
  Samples errors;
  double energy = 0.0;
  for (const auto& scan : record(fx, workload, session_config(), 8)) {
    for (const auto& r : scan) {
      errors.add(r.error());
      energy += r.energy.value();
    }
  }
  ASSERT_GT(errors.count(), 0u);
  EXPECT_LT(errors.max_abs(), 3.0);
  EXPECT_GT(energy, 0.0);
}

TEST(OpenLoop, ValidatesArguments) {
  StackFixture fx;
  const thermal::Workload workload = uniform_phases({{1.0, 1.0}});
  EvalConfig eval = session_config();
  eval.sample_period = Second{0.0};
  EXPECT_THROW((void)run_closed_loop(fx.network, workload, *fx.monitor,
                                     nullptr, eval, 1),
               std::invalid_argument);
  eval = session_config();
  eval.max_duration = Second{0.0};
  EXPECT_THROW((void)run_closed_loop(fx.network, workload, *fx.monitor,
                                     nullptr, eval, 1),
               std::invalid_argument);
  eval = session_config();
  eval.outages.push_back({99, 0, 1});  // no such site
  EXPECT_THROW((void)run_closed_loop(fx.network, workload, *fx.monitor,
                                     nullptr, eval, 1),
               std::invalid_argument);
}

// ----------------------------------------------------------------- guard --

struct GuardRun {
  EvalResult result;
  double max_sensed = -273.15;
  std::size_t throttled_scans = 0;
  std::size_t trips = 0;
};

/// The stack-wide guard (or, disabled, every die at full power) over a
/// run from ambient.
GuardRun run_guard(StackFixture& fx, const thermal::Workload& workload,
                   Controller::Config cfg, const EvalConfig& base,
                   std::uint64_t seed, bool enabled) {
  cfg.policy.static_level = 0;
  cfg.plant.unscalable_fraction = 0.0;
  cfg.violation_ceiling = cfg.policy.gate_on;
  Controller guard{cfg,
                   stack_wide(make_policy(enabled ? PolicyKind::kReactiveGating
                                                  : PolicyKind::kStaticWorstCase,
                                          cfg.policy, fx.cfg.die_count())),
                   fx.cfg.die_count()};
  GuardRun run;
  EvalConfig eval = base;
  bool was_throttled = false;
  eval.on_scan = [&](std::uint64_t, Second,
                     const std::vector<core::StackMonitor::SiteReading>& rs,
                     const Actuation& act) {
    for (const auto& r : rs) {
      run.max_sensed = std::max(run.max_sensed, r.sensed.value());
    }
    const bool throttled = act.dies.front().gated;
    if (throttled) ++run.throttled_scans;
    if (throttled && !was_throttled) ++run.trips;
    was_throttled = throttled;
  };
  run.result =
      run_closed_loop(fx.network, workload, *fx.monitor, &guard, eval, seed);
  return run;
}

TEST(ThermalGuard, ThrottlingReducesPeak) {
  // A hot uniform workload the (single, central) sensor can see directly;
  // runs start from ambient, so the guard has a transient to catch.
  const thermal::Workload hot =
      uniform_phases({{15.0, 40e-3}, {0.5, 40e-3}, {15.0, 40e-3}, {0.5, 40e-3}});
  Controller::Config cfg;
  cfg.policy.gate_on = Celsius{42.0};
  cfg.policy.gate_off = Celsius{38.0};
  cfg.policy.gate_power_scale = 0.3;
  EvalConfig eval;
  eval.sample_period = Second{2e-3};
  eval.thermal_step = Second{1e-3};
  eval.max_duration = Second{160e-3};

  StackFixture fx;
  StackFixture fx2;
  const GuardRun unguarded = run_guard(fx, hot, cfg, eval, 3, false);
  const GuardRun guarded = run_guard(fx2, hot, cfg, eval, 3, true);

  EXPECT_GT(unguarded.result.stats.peak_true_c, cfg.policy.gate_on.value());
  EXPECT_LT(guarded.result.stats.peak_true_c,
            unguarded.result.stats.peak_true_c);
  EXPECT_LT(guarded.result.stats.violation_s,
            unguarded.result.stats.violation_s);
  EXPECT_GT(guarded.trips, 0u);
  EXPECT_GT(guarded.throttled_scans, 0u);
  EXPECT_EQ(unguarded.trips, 0u);
}

TEST(ThermalGuard, SensedTracksTrue) {
  StackFixture fx;
  const thermal::Workload workload = thermal::Workload::burst_idle(
      fx.cfg, Watt{2.0}, Watt{0.2}, Second{20e-3}, 3);
  EvalConfig eval;
  eval.sample_period = Second{5e-3};
  eval.thermal_step = Second{1e-3};
  eval.max_duration = Second{60e-3};
  const GuardRun run =
      run_guard(fx, workload, Controller::Config{}, eval, 4, true);
  // The peak is tracked at every thermal step while max_sensed only exists
  // at sampling instants, so the comparison carries sampling slack on top
  // of sensor error.
  EXPECT_NEAR(run.max_sensed, run.result.stats.peak_true_c, 8.0);
}

// -------------------------------------------------------------- governor --

PolicyConfig governor_policy() {
  PolicyConfig policy;
  policy.ceiling = Celsius{45.0};
  policy.floor = Celsius{40.0};
  return policy;
}

/// The stack-wide governor over `kind` (dvfs, or the static baseline).
EvalResult run_governor(PolicyKind kind, double watts, Second duration,
                        std::uint64_t seed) {
  StackFixture fx{3, 5};
  Controller::Config cfg;
  cfg.policy = governor_policy();
  cfg.plant.unscalable_fraction = 0.0;
  Controller governor{
      cfg, stack_wide(make_policy(kind, cfg.policy, fx.cfg.die_count())),
      fx.cfg.die_count()};
  EvalConfig eval;
  eval.sample_period = Second{2e-3};
  eval.thermal_step = Second{1e-3};
  eval.max_duration = duration;
  return run_closed_loop(fx.network, uniform_phases({{watts, 1.0}}),
                         *fx.monitor, &governor, eval, seed);
}

/// Work per die per second: 1.0 = every die at nominal the whole run.
double relative_throughput(const EvalResult& result) {
  return result.stats.work_done / (4.0 * result.duration.value());
}

TEST(Dvfs, ValidationRejectsBadLadders) {
  PolicyConfig cfg = governor_policy();
  cfg.ladder.clear();
  EXPECT_THROW((void)stack_wide(make_policy(PolicyKind::kDvfsLadder, cfg, 4)),
               std::invalid_argument);
  cfg = governor_policy();
  cfg.ladder[1].relative_frequency = 1.5;  // not descending
  EXPECT_THROW((void)stack_wide(make_policy(PolicyKind::kDvfsLadder, cfg, 4)),
               std::invalid_argument);
  cfg = governor_policy();
  cfg.floor = cfg.ceiling;
  EXPECT_THROW((void)stack_wide(make_policy(PolicyKind::kDvfsLadder, cfg, 4)),
               std::invalid_argument);
}

TEST(Dvfs, CoolWorkloadClimbsToTheTopRungAndStays) {
  const EvalResult result =
      run_governor(PolicyKind::kDvfsLadder, 0.5, Second{100e-3}, 1);
  // From the safe bottom rung, one rung per scan to nominal, then no more
  // transitions.
  const std::size_t rungs = governor_policy().ladder.size();
  EXPECT_EQ(result.stats.actuations, rungs - 1);
  EXPECT_GT(relative_throughput(result), 0.9);
  EXPECT_DOUBLE_EQ(result.stats.violation_s, 0.0);
}

TEST(Dvfs, HotWorkloadStepsDownAndCapsTemperature) {
  const EvalResult result =
      run_governor(PolicyKind::kDvfsLadder, 14.0, Second{400e-3}, 2);
  EXPECT_GT(result.stats.actuations, 0u);
  EXPECT_LT(relative_throughput(result), 1.0);
  EXPECT_GT(relative_throughput(result), 0.4);  // not stuck at the bottom
  // Temperature is contained near the ceiling (sampling slack allowed).
  EXPECT_LT(result.stats.peak_true_c, 60.0);
}

TEST(Dvfs, GovernorBeatsStaticWorstCaseLevel) {
  // A designer without a sensor must statically pick the level that is safe
  // for the worst case (the bottom rung); the governor adapts and wins
  // throughput.
  const EvalResult adaptive =
      run_governor(PolicyKind::kDvfsLadder, 14.0, Second{400e-3}, 3);
  const EvalResult fixed =
      run_governor(PolicyKind::kStaticWorstCase, 14.0, Second{400e-3}, 3);
  EXPECT_EQ(fixed.stats.actuations, 0u);
  EXPECT_GT(relative_throughput(adaptive), relative_throughput(fixed));
}

TEST(Dvfs, HysteresisLimitsTransitionRate) {
  const EvalResult result =
      run_governor(PolicyKind::kDvfsLadder, 14.0, Second{400e-3}, 4);
  // With a 5 degC hysteresis band the governor must not thrash every sample
  // (400 ms / 2 ms = 200 samples).
  EXPECT_LT(result.stats.actuations, 60u);
}

}  // namespace
}  // namespace tsvpt::control
