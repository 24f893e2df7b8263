// A6 [R/extension]: Leakage-thermal feedback and runaway in the stack.
// Leakage grows exponentially with temperature; in a poorly-sunk 3D stack
// the coupled fixed point has a knee beyond which no equilibrium exists.
// This bench sweeps dynamic power with and without feedback, locates the
// runaway threshold, and shows the sensor-driven thermal guard holding an
// otherwise-runaway operating point stable.
#include <iostream>

#include "bench_util.hpp"
#include "control/eval.hpp"
#include "control/policies.hpp"
#include "core/stack_monitor.hpp"
#include "process/variation.hpp"
#include "thermal/leakage.hpp"
#include "thermal/workload.hpp"

using namespace tsvpt;

namespace {

thermal::StackConfig weak_sink_stack() {
  thermal::StackConfig cfg = thermal::StackConfig::four_die_stack();
  cfg.sink_resistance = 5.0;  // a passively cooled / molded package
  return cfg;
}

void attach_leakage(thermal::ThermalNetwork& net, Watt per_die_at_ref) {
  const device::Technology tech = device::Technology::tsmc65_like();
  const auto cells = static_cast<double>(
      net.config().dies[0].nx * net.config().dies[0].ny);
  for (std::size_t d = 0; d < net.config().die_count(); ++d) {
    net.set_leakage_power(
        d, thermal::leakage_source(tech, Volt{1.0},
                                   Watt{per_die_at_ref.value() / cells},
                                   Kelvin{318.15}));  // ref: 45 degC
  }
}

constexpr double kLeakPerDie = 0.18;  // W at the 45 degC reference

}  // namespace

int main() {
  bench::banner("A6", "leakage feedback: runaway knee and the guard");

  Table knee{"A6 steady-state peak (degC) vs dynamic power"};
  knee.add_column("P_dynamic_W", 1);
  knee.add_column("no_feedback", 2);
  knee.add_column("with_feedback");
  knee.add_column("leakage_W");
  for (double p = 1.0; p <= 8.0 + 1e-9; p += 1.0) {
    thermal::ThermalNetwork plain{weak_sink_stack()};
    plain.set_uniform_power(0, Watt{p});
    plain.set_temperatures(plain.steady_state());
    const double t_plain = to_celsius(plain.max_temperature(0)).value();

    thermal::ThermalNetwork fb{weak_sink_stack()};
    fb.set_uniform_power(0, Watt{p});
    attach_leakage(fb, Watt{kLeakPerDie});
    std::string t_fb = "RUNAWAY";
    std::string leak = "-";
    try {
      fb.set_temperatures(fb.steady_state());
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.2f",
                    to_celsius(fb.max_temperature(0)).value());
      t_fb = buf;
      std::snprintf(buf, sizeof buf, "%.2f", fb.leakage_power().value());
      leak = buf;
    } catch (const std::runtime_error&) {
      // no equilibrium: the fixed point diverged
    }
    knee.add_row({p, t_plain, t_fb, leak});
  }
  bench::emit(knee, "a6_knee");

  // The guard rescues an operating point past the open-loop knee.
  const thermal::StackConfig stack = weak_sink_stack();
  thermal::WorkloadPhase hot;
  hot.name = "hot";
  hot.duration = Second{1.5};
  hot.directives.push_back({thermal::PowerDirective::Kind::kUniform, 0,
                            Watt{7.0}, {}, Meter{0.0}});
  const thermal::Workload workload{{hot}};

  std::vector<core::SensorSite> sites =
      core::StackMonitor::uniform_sites(stack, 2, 2);
  const process::VariationModel variation{
      device::Technology::tsmc65_like(),
      {sites[0].location, sites[1].location, sites[2].location,
       sites[3].location}};
  Rng rng{31};
  for (std::size_t d = 0; d < stack.die_count(); ++d) {
    const process::DieVariation die = variation.sample_die(rng);
    for (std::size_t i = 0; i < 4; ++i) sites[d * 4 + i].vt_delta = die.at(i);
  }

  // The guard: one hysteretic trip on the stack's hottest reading that
  // scales every die's power to 20 % while engaged.  Unguarded is the same
  // loop with every die parked at full power.
  control::Controller::Config guard_cfg;
  guard_cfg.policy.gate_on = Celsius{60.0};
  guard_cfg.policy.gate_off = Celsius{52.0};
  guard_cfg.policy.gate_power_scale = 0.2;
  guard_cfg.policy.static_level = 0;
  guard_cfg.plant.unscalable_fraction = 0.0;
  control::EvalConfig eval;
  eval.sample_period = Second{2e-3};
  eval.thermal_step = Second{1e-3};
  eval.max_duration = Second{1.5};

  Table rescue{"A6 transient at 7 W (past the open-loop knee)"};
  rescue.add_column("configuration");
  rescue.add_column("max_true_degC", 2);
  rescue.add_column("throttled_%", 1);
  for (const bool enabled : {false, true}) {
    thermal::ThermalNetwork net{stack};
    attach_leakage(net, Watt{kLeakPerDie});
    net.set_runaway_limit(Kelvin{2000.0});  // let the transient show growth
    core::StackMonitor monitor{&net, core::PtSensor::Config{}, sites, 17};
    control::Controller controller{
        guard_cfg,
        control::stack_wide(control::make_policy(
            enabled ? control::PolicyKind::kReactiveGating
                    : control::PolicyKind::kStaticWorstCase,
            guard_cfg.policy, stack.die_count())),
        stack.die_count()};
    std::size_t scans = 0;
    std::size_t throttled = 0;
    eval.on_scan = [&](std::uint64_t, Second,
                       const std::vector<core::StackMonitor::SiteReading>&,
                       const control::Actuation& act) {
      ++scans;
      if (act.dies.front().gated) ++throttled;
    };
    const control::EvalResult result =
        control::run_closed_loop(net, workload, monitor, &controller, eval, 19);
    rescue.add_row({enabled ? std::string{"guarded"} : std::string{"unguarded"},
                    result.stats.peak_true_c,
                    100.0 * static_cast<double>(throttled) /
                        static_cast<double>(scans)});
  }
  bench::emit(rescue, "a6_rescue");

  std::cout << "Shape check: without feedback the peak grows linearly in "
               "power; with leakage\nfeedback it grows super-linearly and "
               "loses equilibrium at the knee.  The\nsensor-driven guard "
               "holds a past-the-knee operating point by throttling —\n"
               "exactly the monitoring-for-thermal-management role the paper "
               "targets.\n";
  return 0;
}
