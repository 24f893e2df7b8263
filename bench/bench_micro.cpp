// Microbenchmarks (google-benchmark): computational cost of the simulator's
// hot paths.  These are not paper artifacts; they document that the
// behavioral models are cheap enough for million-die Monte Carlo and
// real-time-scale thermal co-simulation.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "calib/linalg.hpp"
#include "circuit/ring_oscillator.hpp"
#include "core/fault_detector.hpp"
#include "core/pt_sensor.hpp"
#include "process/variation.hpp"
#include "thermal/network.hpp"

namespace {

using namespace tsvpt;

void BM_RoFrequency(benchmark::State& state) {
  const device::Technology tech = device::Technology::tsmc65_like();
  const auto ro = circuit::RingOscillator::make(
      tech, circuit::RoTopology::kThermal);
  circuit::OperatingPoint op;
  op.vdd = Volt{1.0};
  op.temperature = Kelvin{330.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ro.frequency(op));
  }
}
BENCHMARK(BM_RoFrequency);

void BM_SelfCalibrate(benchmark::State& state) {
  core::PtSensor sensor{core::PtSensor::Config{}, 1};
  core::DieEnvironment env;
  env.temperature = Kelvin{330.0};
  env.vt_delta = {millivolts(15.0), millivolts(-10.0)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sensor.self_calibrate(env, nullptr));
  }
}
BENCHMARK(BM_SelfCalibrate);

void BM_TrackingRead(benchmark::State& state) {
  core::PtSensor sensor{core::PtSensor::Config{}, 1};
  core::DieEnvironment env;
  env.temperature = Kelvin{330.0};
  (void)sensor.self_calibrate(env, nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sensor.read(env, nullptr));
  }
}
BENCHMARK(BM_TrackingRead);

void BM_ThermalSteadyState(benchmark::State& state) {
  thermal::ThermalNetwork net{thermal::StackConfig::four_die_stack()};
  net.set_uniform_power(0, Watt{2.0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.steady_state());
  }
}
BENCHMARK(BM_ThermalSteadyState);

void BM_ThermalTransientMillisecond(benchmark::State& state) {
  thermal::ThermalNetwork net{thermal::StackConfig::four_die_stack()};
  net.set_uniform_power(0, Watt{2.0});
  net.set_temperatures(net.steady_state());
  for (auto _ : state) {
    net.step(Second{1e-3});
    benchmark::DoNotOptimize(net.temperatures());
  }
}
BENCHMARK(BM_ThermalTransientMillisecond);

void BM_SpatialFieldSample(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<process::Point> points;
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back({1e-4 * static_cast<double>(i % 10),
                      1e-4 * static_cast<double>(i / 10)});
  }
  const process::SpatialField field{points, 8e-3, 1e-3};
  Rng rng{1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(field.sample(rng));
  }
}
BENCHMARK(BM_SpatialFieldSample)->Arg(9)->Arg(36)->Arg(100);

void BM_LuSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng{2};
  calib::Matrix a{n, n};
  calib::Vector b(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.gaussian();
    a(i, i) += 4.0;
    b[i] = rng.gaussian();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(calib::lu_solve(a, b));
  }
}
BENCHMARK(BM_LuSolve)->Arg(3)->Arg(16)->Arg(64);

/// One scan of `n` sites on 4 dies, each die a square-ish 0.5 mm grid
/// shifted by `offset`, under a smooth gradient with one stuck-high site
/// per die — the fleet's spatial-check workload.
std::vector<core::StackMonitor::SiteReading> fault_scan(std::size_t n,
                                                        double offset) {
  std::vector<core::StackMonitor::SiteReading> scan(n);
  const std::size_t per_die = n / 4;
  const auto cols = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(per_die))));
  Rng rng{3};
  for (std::size_t i = 0; i < n; ++i) {
    auto& r = scan[i];
    const std::size_t k = i % per_die;
    r.site_index = i;
    r.die = i / per_die;
    r.location = {offset + 0.5e-3 * static_cast<double>(k % cols),
                  0.5e-3 * static_cast<double>(k / cols)};
    r.sensed = Celsius{50.0 + 2e3 * r.location.x + rng.gaussian(0.0, 0.5) +
                       (k == per_die / 2 ? 40.0 : 0.0)};
  }
  return scan;
}

/// Warm layout: the steady state of a fleet, where every frame of a stack
/// carries the same site map and the detector reuses its weight tables.
void BM_FaultDetectorAnalyze(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto scan = fault_scan(n, 0.0);
  const core::FaultDetector detector{
      core::FaultDetector::Config{.threshold = Celsius{15.0}}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.analyze(scan));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FaultDetectorAnalyze)->Arg(16)->Arg(256)->Arg(1024);

/// New layout every call: the weight tables are rebuilt each time (the
/// cost of a stack whose site map changes, or of the first frame).
void BM_FaultDetectorAnalyzeNewLayout(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<core::StackMonitor::SiteReading> scans[2] = {
      fault_scan(n, 0.0), fault_scan(n, 1e-6)};
  const core::FaultDetector detector{
      core::FaultDetector::Config{.threshold = Celsius{15.0}}};
  std::size_t call = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.analyze(scans[call++ % 2]));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FaultDetectorAnalyzeNewLayout)->Arg(16)->Arg(256)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
