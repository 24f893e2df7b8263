// Controller-in-the-loop integration tests: runaway containment, graceful
// degradation on sensor loss, closed versus open loop on one stack, and
// thread-count invariance of a fleet chaos campaign.
#include "control/eval.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "control/controller.hpp"
#include "core/health_supervisor.hpp"
#include "core/stack_monitor.hpp"
#include "inject/fault_plan.hpp"
#include "inject/injectors.hpp"
#include "process/variation.hpp"
#include "telemetry/fleet_sampler.hpp"
#include "thermal/leakage.hpp"
#include "thermal/workload.hpp"

namespace tsvpt::control {
namespace {

constexpr std::size_t kHotDie = 3;  // top die: every bond layer from sink

thermal::StackConfig weak_sink_stack(double sink_r) {
  thermal::StackConfig cfg = thermal::StackConfig::four_die_stack();
  cfg.sink_resistance = sink_r;
  return cfg;
}

void attach_leakage(thermal::ThermalNetwork& net) {
  const device::Technology tech = device::Technology::tsmc65_like();
  const auto cells = static_cast<double>(net.config().dies[0].nx *
                                         net.config().dies[0].ny);
  for (std::size_t d = 0; d < net.config().die_count(); ++d) {
    net.set_leakage_power(
        d, thermal::leakage_source(tech, Volt{1.0}, Watt{0.10 / cells},
                                   Kelvin{318.15}));
  }
}

thermal::Workload top_die_workload(double peak_w) {
  thermal::WorkloadPhase hot;
  hot.name = "hot";
  hot.duration = Second{10.0};
  hot.directives.push_back({thermal::PowerDirective::Kind::kUniform, kHotDie,
                            Watt{peak_w}, {}, Meter{0.0}});
  for (std::size_t d = 0; d < kHotDie; ++d) {
    hot.directives.push_back({thermal::PowerDirective::Kind::kUniform, d,
                              Watt{0.5}, {}, Meter{0.0}});
  }
  return thermal::Workload{{hot}};
}

std::vector<core::SensorSite> make_sites(const thermal::StackConfig& cfg,
                                         std::uint64_t seed) {
  std::vector<core::SensorSite> sites =
      core::StackMonitor::uniform_sites(cfg, 2, 2);
  std::vector<process::Point> points;
  for (std::size_t i = 0; i < 4; ++i) points.push_back(sites[i].location);
  process::VariationModel variation{device::Technology::tsmc65_like(),
                                    points};
  Rng rng{seed};
  for (std::size_t d = 0; d < cfg.die_count(); ++d) {
    const process::DieVariation die = variation.sample_die(rng);
    for (std::size_t i = 0; i < 4; ++i) sites[d * 4 + i].vt_delta = die.at(i);
  }
  return sites;
}

Controller::Config loop_config(PolicyKind kind) {
  Controller::Config cfg;
  cfg.kind = kind;
  cfg.policy.ceiling = Celsius{69.0};
  cfg.policy.floor = Celsius{63.0};
  cfg.violation_ceiling = Celsius{80.0};
  cfg.plant.unscalable_fraction = 0.5;
  return cfg;
}

EvalResult run_runaway_scenario(PolicyKind kind, std::size_t static_level,
                                const EvalConfig& eval) {
  const thermal::StackConfig stack = weak_sink_stack(5.0);
  thermal::ThermalNetwork network{stack};
  attach_leakage(network);
  const thermal::Workload workload = top_die_workload(8.0);
  std::vector<core::SensorSite> sites = make_sites(stack, 11);
  core::StackMonitor monitor{&network, core::PtSensor::Config{}, sites, 21};
  Controller::Config cfg = loop_config(kind);
  cfg.policy.static_level = static_level;
  Controller controller{cfg, stack.die_count()};
  return run_closed_loop(network, workload, monitor, &controller, eval, 33);
}

TEST(ControlLoop, GovernorContainsTheRunawayTheTopRungTrips) {
  EvalConfig eval;
  eval.sample_period = Second{2e-3};
  eval.thermal_step = Second{1e-3};
  eval.work_budget = 2.4;
  eval.max_duration = Second{3.0};
  eval.abort_above = Celsius{100.0};

  // Every die pinned at the top rung: leakage feedback diverges and the
  // run aborts on the runaway limit with the work budget unmet.
  const EvalResult pinned =
      run_runaway_scenario(PolicyKind::kStaticWorstCase, 0, eval);
  EXPECT_TRUE(pinned.runaway);
  EXPECT_FALSE(pinned.completed);
  EXPECT_LT(pinned.stats.work_done, eval.work_budget);

  // The closed loop finishes the same work with no runaway and no
  // violation time, never nearing the abort limit.
  const EvalResult governed =
      run_runaway_scenario(PolicyKind::kDvfsLadder, kLadderBottom, eval);
  EXPECT_FALSE(governed.runaway);
  EXPECT_TRUE(governed.completed);
  EXPECT_LT(governed.stats.peak_true_c, 80.0);
  EXPECT_DOUBLE_EQ(governed.stats.violation_s, 0.0);
}

TEST(ControlLoop, ReplayIsDeterministicForFixedSeeds) {
  EvalConfig eval;
  eval.sample_period = Second{2e-3};
  eval.thermal_step = Second{1e-3};
  eval.work_budget = 0.8;
  eval.max_duration = Second{0.5};
  const EvalResult a =
      run_runaway_scenario(PolicyKind::kDvfsLadder, kLadderBottom, eval);
  const EvalResult b =
      run_runaway_scenario(PolicyKind::kDvfsLadder, kLadderBottom, eval);
  EXPECT_EQ(a.stats.decisions, b.stats.decisions);
  EXPECT_EQ(a.stats.level_changes, b.stats.level_changes);
  EXPECT_EQ(a.stats.energy_j, b.stats.energy_j);  // bit-exact, not NEAR
  EXPECT_EQ(a.stats.work_done, b.stats.work_done);
  EXPECT_EQ(a.stats.peak_true_c, b.stats.peak_true_c);
}

TEST(ControlLoop, QuarantinedFallbackNeverReadsTheDeadSite) {
  const thermal::StackConfig stack = weak_sink_stack(2.5);
  thermal::ThermalNetwork network{stack};
  attach_leakage(network);
  const thermal::Workload workload = top_die_workload(10.0);
  std::vector<core::SensorSite> sites = make_sites(stack, 818181);
  core::StackMonitor monitor{&network, core::PtSensor::Config{}, sites,
                             929292};
  Controller::Config cfg = loop_config(PolicyKind::kDvfsLadder);
  cfg.policy.ceiling = Celsius{59.0};
  cfg.policy.floor = Celsius{54.0};
  cfg.violation_ceiling = Celsius{65.0};
  Controller controller{cfg, stack.die_count()};
  const std::size_t bottom = cfg.policy.ladder.size() - 1;

  EvalConfig eval;
  eval.sample_period = Second{2e-3};
  eval.thermal_step = Second{1e-3};
  eval.work_budget = 1.0;
  eval.max_duration = Second{0.8};
  eval.supervise = true;
  for (std::size_t site = 0; site < 4; ++site) {  // the hot die goes dark
    eval.outages.push_back({kHotDie * 4 + site, 20, 1'000'000});
  }
  constexpr auto kQuarantined =
      static_cast<std::uint8_t>(core::HealthState::kQuarantined);
  std::uint64_t blind_hot_scans = 0;
  std::uint64_t skipped_conversions = 0;
  eval.on_scan = [&](std::uint64_t scan, Second,
                     const std::vector<core::StackMonitor::SiteReading>& rs,
                     const Actuation& act) {
    for (const core::StackMonitor::SiteReading& r : rs) {
      // A quarantined site is pulled from duty: its reading is always a
      // degraded substitute the policy must ignore, and outside the
      // supervisor's occasional re-probes no conversion runs at all.
      if (r.health == kQuarantined) {
        EXPECT_TRUE(r.degraded) << "scan " << scan << " site " << r.site_index;
        if (r.energy.value() == 0.0) ++skipped_conversions;
      }
    }
    const StackObservation obs =
        observe_scan(scan, Second{0.0}, rs, stack.die_count());
    if (obs.dies[kHotDie].blind()) {
      ++blind_hot_scans;
      // Blind on the hot die: its command must be the worst-case rung, and
      // never sourced from whatever the dead sensors last said.
      ASSERT_EQ(act.dies.size(), stack.die_count());
      EXPECT_EQ(act.dies[kHotDie].level, bottom);
    }
  };

  const EvalResult result =
      run_closed_loop(network, workload, monitor, &controller, eval, 515);
  EXPECT_GT(blind_hot_scans, 0u);
  EXPECT_GT(skipped_conversions, 0u);  // the skip path actually engaged
  EXPECT_GT(result.stats.blind_scans, 0u);
  EXPECT_DOUBLE_EQ(result.stats.violation_s, 0.0);
}

TEST(ControlLoop, ControllerLowersPeakTemperatureOverOpenLoop) {
  const thermal::StackConfig stack = thermal::StackConfig::four_die_stack();
  const thermal::Workload workload = top_die_workload(14.0);

  const auto peak_truth = [&](Controller* controller) {
    thermal::ThermalNetwork network{stack};
    std::vector<core::SensorSite> sites = make_sites(stack, 7);
    core::StackMonitor monitor{&network, core::PtSensor::Config{}, sites, 9};
    EvalConfig eval;
    eval.sample_period = Second{2e-3};
    eval.thermal_step = Second{1e-3};
    eval.max_duration = Second{300e-3};
    double peak = -273.15;
    eval.on_scan = [&](std::uint64_t, Second,
                       const std::vector<core::StackMonitor::SiteReading>& rs,
                       const Actuation&) {
      for (const core::StackMonitor::SiteReading& r : rs) {
        peak = std::max(peak, r.truth.value());
      }
    };
    (void)run_closed_loop(network, workload, monitor, controller, eval, 13);
    return peak;
  };

  const double open_loop = peak_truth(nullptr);
  Controller::Config cfg = loop_config(PolicyKind::kDvfsLadder);
  cfg.policy.ceiling = Celsius{45.0};
  cfg.policy.floor = Celsius{40.0};
  Controller controller{cfg, stack.die_count()};
  const double closed_loop = peak_truth(&controller);
  EXPECT_LT(closed_loop, open_loop - 2.0);
  EXPECT_GT(controller.stats().decisions, 0u);
}

inject::FaultPlan chaos_plan(std::size_t stacks, std::uint64_t scans) {
  inject::FaultPlan plan;
  const std::uint64_t mid = scans / 3;
  for (std::size_t k = 0; k < stacks; k += 2) {
    for (std::size_t site = 0; site < 4; ++site) {
      plan.add({inject::FaultKind::kDeadRo, k, site, mid, scans, 0.0});
    }
  }
  plan.add({inject::FaultKind::kStuckRo, 1, 5, mid / 2, scans, 80.0});
  plan.add({inject::FaultKind::kSupplyDroop, 1, 9, mid, 2 * mid, 0.08});
  return plan;
}

std::string fleet_digest(std::size_t threads) {
  constexpr std::size_t kStacks = 4;
  constexpr std::size_t kScans = 30;
  ControlPlane::Config plane_cfg;
  plane_cfg.controller = loop_config(PolicyKind::kDvfsLadder);
  plane_cfg.controller.policy.ceiling = Celsius{50.0};
  plane_cfg.controller.policy.floor = Celsius{44.0};
  plane_cfg.controller.violation_ceiling = Celsius{55.0};
  plane_cfg.stack_count = kStacks;
  plane_cfg.die_count = 4;
  ControlPlane plane{plane_cfg};

  telemetry::FleetSampler::Config cfg;
  cfg.stack_count = kStacks;
  cfg.thread_count = threads;
  cfg.scans_per_stack = kScans;
  cfg.peak_power = Watt{8.0};
  cfg.seed = 4242;
  cfg.supervise = true;
  cfg.control = &plane;
  telemetry::FleetSampler sampler{cfg};
  inject::ChaosInjector injector{chaos_plan(kStacks, kScans), &sampler};
  sampler.set_interceptor(&injector);
  sampler.run();

  const Controller::Stats total = plane.total();
  EXPECT_EQ(total.decisions, kStacks * kScans);
  EXPECT_GT(total.energy_j, 0.0);
  return canonical_digest(plane);
}

TEST(ControlLoop, FleetChaosDigestIsThreadCountInvariant) {
  const std::string one = fleet_digest(1);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(fleet_digest(2), one);
  EXPECT_EQ(fleet_digest(8), one);
}

}  // namespace
}  // namespace tsvpt::control
