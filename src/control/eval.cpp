#include "control/eval.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "core/pt_sensor.hpp"

namespace tsvpt::control {

namespace {

void set_site_dead(core::StackMonitor& monitor, std::size_t site, bool dead) {
  if (dead) {
    for (std::size_t r = 0; r < core::kRoCount; ++r) {
      monitor.sensor(site).inject_fault(static_cast<core::RoRole>(r),
                                        core::RoFault::kDead);
    }
  } else {
    monitor.sensor(site).clear_faults();
  }
}

Celsius stack_max_true(const thermal::ThermalNetwork& network) {
  Celsius hottest{-273.15};
  for (std::size_t d = 0; d < network.config().die_count(); ++d) {
    const Celsius t = to_celsius(network.max_temperature(d));
    if (t > hottest) hottest = t;
  }
  return hottest;
}

}  // namespace

Second advance_period(thermal::ThermalNetwork& network,
                      const thermal::Workload& workload,
                      Controller* controller, Second t0, Second period,
                      Second step,
                      const std::function<bool(Celsius max_true)>& stop) {
  Second advanced{0.0};
  while (advanced < period) {
    const Second h = std::min(step, period - advanced);
    if (h.value() <= 0.0) break;  // float residue; the period is covered
    if (controller != nullptr) {
      apply_actuation(workload, network, t0 + advanced,
                      controller->actuation(), controller->config().plant);
    } else {
      workload.apply(network, t0 + advanced);
    }
    network.step(h);
    advanced += h;
    if (controller == nullptr && !stop) continue;
    const Celsius max_true = stack_max_true(network);
    if (controller != nullptr) {
      controller->note_tick(h, max_true,
                            Watt{network.total_power().value() +
                                 network.leakage_power().value()});
    }
    if (stop && stop(max_true)) break;
  }
  return advanced;
}

std::vector<core::StackMonitor::SiteReading> sample_scan(
    core::StackMonitor& monitor, core::HealthSupervisor* supervisor,
    Rng& noise,
    const std::function<void(std::vector<core::StackMonitor::SiteReading>&)>&
        raw,
    std::vector<core::HealthSupervisor::Transition>* transitions) {
  if (supervisor == nullptr) {
    std::vector<core::StackMonitor::SiteReading> readings =
        monitor.sample_all(&noise);
    if (raw) raw(readings);
    return readings;
  }
  // Only convert the sites the supervisor asks for: quarantined sites
  // between probes and dead sites cost nothing.
  const std::size_t sites = monitor.site_count();
  std::vector<bool> sampled(sites, true);
  std::vector<core::StackMonitor::SiteReading> readings;
  readings.reserve(sites);
  for (std::size_t i = 0; i < sites; ++i) {
    if (supervisor->wants_sample(i)) {
      readings.push_back(monitor.sample_site(i, &noise));
    } else {
      sampled[i] = false;
      core::StackMonitor::SiteReading placeholder;
      placeholder.site_index = i;
      placeholder.die = monitor.site(i).die;
      placeholder.location = monitor.site(i).location;
      placeholder.truth = monitor.truth_at(i);
      placeholder.degraded = true;  // no conversion behind it
      readings.push_back(placeholder);
    }
  }
  if (raw) raw(readings);
  core::HealthSupervisor::ScanResult result =
      supervisor->observe(readings, sampled);
  for (const std::size_t i : result.recalibrate) {
    // Forced recalibration on recovery: drop the latched process point;
    // the next conversion self-calibrates afresh.
    monitor.sensor(i).clear_calibration();
  }
  if (transitions != nullptr) {
    for (auto& t : result.transitions) transitions->push_back(std::move(t));
  }
  return std::move(result.readings);
}

EvalResult run_closed_loop(thermal::ThermalNetwork& network,
                           const thermal::Workload& workload,
                           core::StackMonitor& monitor,
                           Controller* controller, const EvalConfig& config,
                           std::uint64_t noise_seed) {
  if (config.sample_period.value() <= 0.0 ||
      config.thermal_step.value() <= 0.0) {
    throw std::invalid_argument{"run_closed_loop: non-positive period"};
  }
  if (config.max_duration.value() <= 0.0) {
    throw std::invalid_argument{"run_closed_loop: non-positive duration"};
  }
  for (const SensorOutage& o : config.outages) {
    if (o.site >= monitor.site_count() || o.end_scan <= o.start_scan) {
      throw std::invalid_argument{"run_closed_loop: bad outage"};
    }
  }

  Rng noise{noise_seed};
  if (controller != nullptr) controller->reset();

  // Power-on: program the uncontrolled map, pick the start state, calibrate.
  workload.apply(network, Second{0.0});
  if (config.start_at_steady_state) {
    network.set_temperatures(network.steady_state());
  } else {
    network.set_uniform_temperature(network.config().ambient);
  }
  monitor.calibrate_all(&noise);

  std::unique_ptr<core::HealthSupervisor> supervisor;
  if (config.supervise) {
    supervisor = std::make_unique<core::HealthSupervisor>(config.health);
  }

  EvalResult result;
  const auto stop = [&](Celsius max_true) {
    if (max_true > config.abort_above) {
      result.runaway = true;
    } else if (controller != nullptr && config.work_budget > 0.0 &&
               controller->stats().work_done >= config.work_budget) {
      result.completed = true;
    }
    return result.runaway || result.completed;
  };
  const Actuation open_loop;
  Second t{0.0};
  for (std::uint64_t scan = 0;; ++scan) {
    const Second next = t + config.sample_period;
    if (next > config.max_duration) break;
    const Second advanced =
        advance_period(network, workload, controller, t, config.sample_period,
                       config.thermal_step, stop);
    if (result.runaway || result.completed) {
      t += advanced;
      break;
    }
    t = next;

    for (const SensorOutage& o : config.outages) {
      if (scan == o.start_scan) set_site_dead(monitor, o.site, true);
      if (scan == o.end_scan) set_site_dead(monitor, o.site, false);
    }
    const std::vector<core::StackMonitor::SiteReading> readings =
        sample_scan(monitor, supervisor.get(), noise);
    if (controller != nullptr) controller->on_scan(scan, t, readings);
    if (config.on_scan) {
      config.on_scan(scan, t, readings,
                     controller != nullptr ? controller->actuation()
                                           : open_loop);
    }
  }

  result.duration = t;
  if (controller != nullptr) result.stats = controller->stats();
  return result;
}

}  // namespace tsvpt::control
