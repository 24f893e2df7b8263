// The one sense -> decide -> actuate loop, and the single-stack harness
// built on it.
//
// Two building blocks make up one sample period of any stack, and every
// driver in the repo uses exactly these: telemetry::FleetSampler for each
// stack of a fleet, run_closed_loop for one stack.
//
//   advance_period  run the plant one sample period under the controller's
//                   held actuation (the raw workload map open-loop),
//                   accounting every thermal substep on the controller;
//   sample_scan     convert the sensors, skipping the sites a
//                   HealthSupervisor has pulled from duty, and serve the
//                   supervised readings.
//
// The order is advance, then scan: scan k is taken at (k + 1) sample
// periods, and its decision governs the period after it.  Before the first
// scan the controller holds its policy's safe actuation.
//
// run_closed_loop is the policy harness behind bench_a20, A6, A11, F5, the
// examples and the Control* loop tests.  With a work budget it runs until
// the dies have accrued that much work (relative-frequency-seconds) rather
// than for a fixed duration.  That makes the energy comparison between
// policies honest: a policy that throttles harder takes longer to finish
// the same work and keeps paying the plant's unscalable power floor and
// leakage the whole time (race-to-idle).  With a null controller it is the
// open-loop monitoring run: the raw workload map, readings through on_scan.
//
// Sensor-loss scenarios inject dead-RO windows per site; with supervision
// enabled a site the HealthSupervisor has pulled from duty is never
// converted, so the controller's blind-die fallback, not a stale or
// fabricated reading, is what keeps the stack safe.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "control/controller.hpp"
#include "core/health_supervisor.hpp"
#include "core/stack_monitor.hpp"
#include "ptsim/rng.hpp"
#include "ptsim/units.hpp"
#include "thermal/network.hpp"
#include "thermal/workload.hpp"

namespace tsvpt::control {

/// Run `network` forward one sample period from plant time `t0`, in
/// substeps of at most `step`.  Each substep programs the power map for its
/// start time (the controller's held actuation over the workload, or the
/// raw workload when `controller` is null), integrates, and notes the
/// substep on the controller.  `stop`, when given, sees the stack's true
/// maximum after every substep; returning true ends the period there.
/// Returns the plant time advanced (short of `period` only on a stop).
Second advance_period(thermal::ThermalNetwork& network,
                      const thermal::Workload& workload,
                      Controller* controller, Second t0, Second period,
                      Second step,
                      const std::function<bool(Celsius max_true)>& stop = {});

/// One scan of `monitor`, readings in site order.  Without a supervisor
/// every site converts.  With one, only the sites it wants convert; the
/// others carry degraded placeholders (no conversion behind them, truth
/// filled in).  `raw`, when given, sees the raw readings before supervision
/// (the chaos seam for silent corruption).  The supervisor then observes
/// the scan, sites it recovered drop their latched calibration, and its
/// health transitions are appended to `transitions` when given.  Returns
/// the readings to serve: substitutes for quarantined and dead sites.
std::vector<core::StackMonitor::SiteReading> sample_scan(
    core::StackMonitor& monitor, core::HealthSupervisor* supervisor,
    Rng& noise,
    const std::function<void(std::vector<core::StackMonitor::SiteReading>&)>&
        raw = {},
    std::vector<core::HealthSupervisor::Transition>* transitions = nullptr);

/// Dead-RO window on one site: every oscillator of the site's sensor stops
/// at `start_scan` and recovers at `end_scan` (exclusive).
struct SensorOutage {
  std::size_t site = 0;
  std::uint64_t start_scan = 0;
  std::uint64_t end_scan = 0;
};

struct EvalConfig {
  Second sample_period{1e-3};
  Second thermal_step{2.5e-4};
  /// Stop once this much work is done (0 = run to max_duration).
  double work_budget = 0.0;
  /// Scans run at every sample period up to and including this time.
  Second max_duration{1.0};
  /// Start from the uncontrolled steady state instead of ambient.
  bool start_at_steady_state = false;
  /// Abort (EvalResult::runaway) once any true cell temperature exceeds
  /// this — the transient analogue of the network's runaway limit, which
  /// only steady-state solves enforce.  Default far above any survivable
  /// silicon temperature, i.e. effectively off.
  Celsius abort_above{500.0};
  bool supervise = false;
  core::HealthSupervisor::Config health;
  std::vector<SensorOutage> outages;
  /// Per-scan hook: the scan's plant time, its post-supervision readings
  /// and the actuation held after its decision (empty open-loop).
  std::function<void(std::uint64_t scan, Second time,
                     const std::vector<core::StackMonitor::SiteReading>&,
                     const Actuation&)>
      on_scan;
};

struct EvalResult {
  /// Work budget met before the time cap (always false with budget 0).
  bool completed = false;
  /// The run was aborted because the plant crossed `abort_above`.
  bool runaway = false;
  Second duration{0.0};
  /// The controller's accounting (all zero open-loop).
  Controller::Stats stats;
};

/// Deterministic given `noise_seed`.  Resets the controller (when given),
/// power-on calibrates the monitor, then alternates advance_period with
/// sample_scan and the controller's decision until the budget, the abort
/// limit or the time cap ends the run.
EvalResult run_closed_loop(thermal::ThermalNetwork& network,
                           const thermal::Workload& workload,
                           core::StackMonitor& monitor,
                           Controller* controller, const EvalConfig& config,
                           std::uint64_t noise_seed);

}  // namespace tsvpt::control
