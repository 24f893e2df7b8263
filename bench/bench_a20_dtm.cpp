// A20 [R/extension]: Closed-loop DTM policy evaluation.  Four control
// policies (static worst-case, per-die DVFS, reactive gating, inter-die
// migration) run the same fixed work budget on a runaway-prone stack
// (weak sink + leakage feedback), scored on total energy, peak true
// temperature and ceiling-violation time.  A second scenario kills every
// sensor on the hot die mid-run under health supervision, checking the
// policies degrade to worst-case-safe levels instead of actuating on dead
// readings.  A third run drives a whole fleet controller-in-the-loop
// through a chaos campaign at several worker counts and requires the
// per-stack control outcome to be byte-identical.
//
// Gates (all enforced in --smoke too, at reduced scale):
//   * dvfs and migration beat the static baseline on energy with
//     equal-or-fewer violation-seconds (race-to-idle: the static run pays
//     the plant's unscalable floor and leakage for twice as long);
//   * the sensor-loss runs stay within the static baseline's violation
//     time and actually exercise the blind fallback;
//   * canonical control digests are identical across thread counts.
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "control/controller.hpp"
#include "control/eval.hpp"
#include "core/stack_monitor.hpp"
#include "inject/fault_plan.hpp"
#include "inject/injectors.hpp"
#include "process/variation.hpp"
#include "telemetry/fleet_sampler.hpp"
#include "thermal/leakage.hpp"
#include "thermal/workload.hpp"

using namespace tsvpt;

namespace {

thermal::StackConfig weak_sink_stack() {
  thermal::StackConfig cfg = thermal::StackConfig::four_die_stack();
  cfg.sink_resistance = 2.5;  // a passively cooled / molded package
  return cfg;
}

constexpr std::size_t kHotDie = 3;  // top die: three bond layers from sink

void attach_leakage(thermal::ThermalNetwork& net) {
  const device::Technology tech = device::Technology::tsmc65_like();
  const auto cells = static_cast<double>(
      net.config().dies[0].nx * net.config().dies[0].ny);
  for (std::size_t d = 0; d < net.config().die_count(); ++d) {
    net.set_leakage_power(
        d, thermal::leakage_source(tech, Volt{1.0}, Watt{0.10 / cells},
                                   Kelvin{318.15}));  // ref: 45 degC
  }
}

/// Hot logic die on top of the stack (every bond layer between it and the
/// sink) plus idle floors below: the uncontrolled map that runs away on
/// the weak-sink stack, with a real inter-die gradient for the policies to
/// act on.
thermal::Workload hot_workload(Watt peak) {
  thermal::WorkloadPhase hot;
  hot.name = "hot";
  hot.duration = Second{10.0};
  hot.directives.push_back({thermal::PowerDirective::Kind::kUniform, kHotDie,
                            peak, {}, Meter{0.0}});
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

control::Controller::Config controller_config(control::PolicyKind kind) {
  control::Controller::Config cfg;
  cfg.kind = kind;
  cfg.policy.ceiling = Celsius{59.0};
  cfg.policy.floor = Celsius{54.0};
  cfg.policy.gate_on = Celsius{59.0};
  cfg.policy.gate_off = Celsius{54.0};
  cfg.policy.migrate_trip = Celsius{56.0};
  cfg.policy.migrate_margin_c = 2.0;
  cfg.policy.migrate_step = 0.1;
  cfg.policy.migrate_cap = 0.6;
  cfg.policy.migrate_cooldown_scans = 4;
  cfg.violation_ceiling = Celsius{65.0};
  // Clock-tree/IO-heavy dies: half the dynamic power rides through a DVFS
  // step.  This is what makes parking at the bottom rung energy-expensive
  // per unit of work and gives race-to-idle its bite.
  cfg.plant.unscalable_fraction = 0.5;
  return cfg;
}

constexpr control::PolicyKind kAllPolicies[] = {
    control::PolicyKind::kStaticWorstCase, control::PolicyKind::kDvfsLadder,
    control::PolicyKind::kReactiveGating, control::PolicyKind::kMigration};

struct ScenarioRun {
  control::PolicyKind kind;
  control::EvalResult result;
};

std::vector<ScenarioRun> run_scenario(const control::EvalConfig& eval,
                                      Watt peak) {
  std::vector<ScenarioRun> runs;
  for (const control::PolicyKind kind : kAllPolicies) {
    const thermal::StackConfig stack = weak_sink_stack();
    thermal::ThermalNetwork network{stack};
    attach_leakage(network);
    network.set_runaway_limit(Kelvin{2000.0});
    const thermal::Workload workload = hot_workload(peak);
    std::vector<core::SensorSite> sites = make_sites(stack, 818181);
    core::StackMonitor monitor{&network, core::PtSensor::Config{}, sites,
                               929292};
    control::Controller controller{controller_config(kind),
                                   stack.die_count()};
    runs.push_back(
        {kind, run_closed_loop(network, workload, monitor, &controller, eval,
                               515)});
  }
  return runs;
}

void emit_scenario(const std::vector<ScenarioRun>& runs,
                   const std::string& title, const std::string& csv) {
  Table table{title};
  table.add_column("policy");
  table.add_column("energy_J", 3);
  table.add_column("peak_degC", 2);
  table.add_column("violation_s", 4);
  table.add_column("duration_s", 3);
  table.add_column("done");
  table.add_column("actuations", 0);
  table.add_column("migrations", 0);
  table.add_column("blind_scans", 0);
  for (const ScenarioRun& run : runs) {
    const control::Controller::Stats& s = run.result.stats;
    table.add_row({std::string{control::to_string(run.kind)}, s.energy_j,
                   s.peak_true_c, s.violation_s, run.result.duration.value(),
                   run.result.completed ? std::string{"yes"}
                                        : std::string{"no"},
                   static_cast<long long>(s.actuations),
                   static_cast<long long>(s.migrations),
                   static_cast<long long>(s.blind_scans)});
  }
  bench::emit(table, csv);
}

const control::EvalResult& result_of(const std::vector<ScenarioRun>& runs,
                                     control::PolicyKind kind) {
  for (const ScenarioRun& run : runs) {
    if (run.kind == kind) return run.result;
  }
  throw std::logic_error{"policy missing from scenario"};
}

/// Fleet chaos campaign (sensor-only kinds): dead windows on a couple of
/// stacks' hot-die sites plus a stuck oscillator and a droop excursion.
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

std::string fleet_digest(std::size_t threads, std::size_t stacks,
                         std::size_t scans) {
  control::ControlPlane::Config plane_cfg;
  plane_cfg.controller = controller_config(control::PolicyKind::kDvfsLadder);
  plane_cfg.controller.policy.ceiling = Celsius{50.0};
  plane_cfg.controller.policy.floor = Celsius{44.0};
  plane_cfg.controller.violation_ceiling = Celsius{55.0};
  plane_cfg.stack_count = stacks;
  plane_cfg.die_count = 4;
  control::ControlPlane plane{plane_cfg};

  telemetry::FleetSampler::Config cfg;
  cfg.stack_count = stacks;
  cfg.thread_count = threads;
  cfg.scans_per_stack = scans;
  cfg.peak_power = Watt{8.0};
  cfg.seed = 4242;
  cfg.supervise = true;
  cfg.control = &plane;
  telemetry::FleetSampler sampler{cfg};
  inject::ChaosInjector injector{chaos_plan(stacks, scans), &sampler};
  sampler.set_interceptor(&injector);
  sampler.run();
  return control::canonical_digest(plane);
}

int fail(const std::string& reason) {
  std::cout << "\nFAIL: " << reason << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  bench::banner("A20", smoke ? "closed-loop DTM policy scoreboard (smoke)"
                             : "closed-loop DTM policy scoreboard");

  const Watt peak{10.0};
  control::EvalConfig eval;
  eval.sample_period = Second{2e-3};
  eval.thermal_step = Second{1e-3};
  eval.work_budget = smoke ? 1.0 : 4.8;
  eval.max_duration = Second{smoke ? 0.8 : 3.5};

  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) trace = true;
  }
  if (trace) {
    eval.on_scan = [](std::uint64_t scan, Second,
                      const std::vector<core::StackMonitor::SiteReading>& readings,
                      const control::Actuation& act) {
      if (scan % 25 != 0) return;
      double sensed[4] = {-300, -300, -300, -300};
      for (const core::StackMonitor::SiteReading& r : readings) {
        if (!r.degraded && r.die < 4)
          sensed[r.die] = std::max(sensed[r.die], r.sensed.value());
      }
      std::printf("scan %5llu  sensed %6.2f %6.2f %6.2f %6.2f  levels",
                  static_cast<unsigned long long>(scan), sensed[0], sensed[1],
                  sensed[2], sensed[3]);
      for (const control::DieCommand& c : act.dies)
        std::printf(" %zu%s", c.level, c.gated ? "g" : "");
      std::printf("\n");
    };
  }

  // -- Scenario 1: runaway containment under a fixed work budget ----------
  const std::vector<ScenarioRun> runaway = run_scenario(eval, peak);
  emit_scenario(runaway,
                "A20 runaway containment (weak sink + leakage, fixed work)",
                "a20_runaway");

  // -- Scenario 2: sensor loss under supervision --------------------------
  control::EvalConfig loss = eval;
  loss.supervise = true;
  const std::uint64_t blind_at = smoke ? 20 : 60;
  for (std::size_t site = 0; site < 4; ++site) {  // the hot die goes dark
    loss.outages.push_back({kHotDie * 4 + site, blind_at, 1'000'000});
  }
  const std::vector<ScenarioRun> loss_runs = run_scenario(loss, peak);
  emit_scenario(loss_runs,
                "A20 sensor loss on the hot die (supervised, die 0 dark)",
                "a20_sensor_loss");

  // -- Scenario 3: thread-count invariance under chaos --------------------
  const std::size_t stacks = smoke ? 4 : 8;
  const std::size_t scans = smoke ? 40 : 120;
  std::vector<std::size_t> thread_counts{1, 2};
  if (!smoke) thread_counts.push_back(8);
  std::vector<std::string> digests;
  Table det{"A20 control determinism across worker counts (chaos campaign)"};
  det.add_column("threads", 0);
  det.add_column("digest_bytes", 0);
  det.add_column("matches_1_thread");
  for (const std::size_t threads : thread_counts) {
    digests.push_back(fleet_digest(threads, stacks, scans));
    det.add_row({static_cast<long long>(threads),
                 static_cast<long long>(digests.back().size()),
                 digests.back() == digests.front() ? std::string{"yes"}
                                                   : std::string{"NO"}});
  }
  bench::emit(det, "a20_determinism");

  // -- Gates --------------------------------------------------------------
  const auto& stat = result_of(runaway, control::PolicyKind::kStaticWorstCase);
  const auto& dvfs = result_of(runaway, control::PolicyKind::kDvfsLadder);
  const auto& mig = result_of(runaway, control::PolicyKind::kMigration);
  if (!stat.completed || !dvfs.completed || !mig.completed) {
    return fail("a policy did not finish the work budget in time");
  }
  constexpr double kEps = 1e-9;
  if (!(dvfs.stats.energy_j < stat.stats.energy_j &&
        dvfs.stats.violation_s <= stat.stats.violation_s + kEps)) {
    return fail("dvfs must beat static on energy at <= violations");
  }
  if (!(mig.stats.energy_j < stat.stats.energy_j &&
        mig.stats.violation_s <= stat.stats.violation_s + kEps)) {
    return fail("migration must beat static on energy at <= violations");
  }
  const auto& loss_static =
      result_of(loss_runs, control::PolicyKind::kStaticWorstCase);
  for (const control::PolicyKind kind :
       {control::PolicyKind::kDvfsLadder, control::PolicyKind::kMigration,
        control::PolicyKind::kReactiveGating}) {
    const auto& run = result_of(loss_runs, kind);
    if (run.stats.violation_s > loss_static.stats.violation_s + kEps) {
      return fail(std::string{control::to_string(kind)} +
                  ": sensor loss must not cost violation time");
    }
    if (run.stats.blind_scans == 0) {
      return fail(std::string{control::to_string(kind)} +
                  ": blind fallback never engaged");
    }
  }
  for (const std::string& digest : digests) {
    if (digest != digests.front()) {
      return fail("control outcome varies with thread count");
    }
  }

  std::cout << "Shape check: the static baseline is safe but stretches the "
               "run out, paying the\nunscalable power floor and leakage the "
               "whole time; the adaptive policies finish\nthe same work "
               "sooner and cheaper at zero violation cost, and a dark die "
               "degrades\nto the worst-case rung instead of acting on dead "
               "readings.\n";
  return 0;
}
