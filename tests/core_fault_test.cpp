// Failure-injection suite: oscillator faults injected into live sensors,
// the sensor's own degradation behaviour, and the fleet-level detector
// that localizes the faulty site.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>

#include "core/fault_detector.hpp"
#include "core/field_estimator.hpp"
#include "core/pt_sensor.hpp"
#include "core/stack_monitor.hpp"
#include "process/variation.hpp"

namespace tsvpt::core {
namespace {

PtSensor::Config clean_config() {
  PtSensor::Config cfg;
  cfg.ro_mismatch_sigma = Volt{0.0};
  return cfg;
}

DieEnvironment environment(double t_celsius) {
  DieEnvironment env;
  env.temperature = to_kelvin(Celsius{t_celsius});
  return env;
}

TEST(FaultInjection, DeadTdroDegradesTrackingRead) {
  PtSensor sensor{clean_config(), 1};
  (void)sensor.self_calibrate(environment(40.0), nullptr);
  sensor.inject_fault(RoRole::kTdro, RoFault::kDead);
  const auto reading = sensor.read(environment(40.0), nullptr);
  EXPECT_TRUE(reading.degraded);
  EXPECT_DOUBLE_EQ(reading.temperature.value(),
                   clean_config().t_min.value());
}

TEST(FaultInjection, DeadPsroFailsCalibrationGracefully) {
  PtSensor sensor{clean_config(), 2};
  sensor.inject_fault(RoRole::kPsroN, RoFault::kDead);
  const auto est = sensor.self_calibrate(environment(40.0), nullptr);
  EXPECT_FALSE(est.converged);  // no throw, no poisoned solve
}

TEST(FaultInjection, StuckTdroGivesConfidentWrongAnswer) {
  // The dangerous failure mode: a stuck oscillator still yields a plausible
  // reading that does NOT track temperature — undetectable locally.
  PtSensor sensor{clean_config(), 3};
  const DieEnvironment base = environment(40.0);
  (void)sensor.self_calibrate(base, nullptr);
  const Hertz frozen = sensor.model_frequency(RoRole::kTdro, Volt{0.0},
                                              Volt{0.0},
                                              to_kelvin(Celsius{40.0}));
  sensor.inject_fault(RoRole::kTdro, RoFault::kStuck, frozen);
  const auto hot = sensor.read(base.at_celsius(Celsius{90.0}), nullptr);
  EXPECT_FALSE(hot.degraded);  // looks healthy...
  EXPECT_NEAR(hot.temperature.value(), 40.0, 2.0);  // ...but reads 40.
}

TEST(FaultInjection, ClearFaultsRestoresOperation) {
  PtSensor sensor{clean_config(), 4};
  (void)sensor.self_calibrate(environment(40.0), nullptr);
  sensor.inject_fault(RoRole::kTdro, RoFault::kDead);
  sensor.clear_faults();
  const auto reading = sensor.read(environment(70.0), nullptr);
  EXPECT_FALSE(reading.degraded);
  EXPECT_NEAR(reading.temperature.value(), 70.0, 0.7);
}

struct FleetFixture {
  thermal::StackConfig cfg = thermal::StackConfig::four_die_stack();
  thermal::ThermalNetwork network{cfg};
  std::vector<SensorSite> sites;
  std::unique_ptr<StackMonitor> monitor;

  FleetFixture() {
    sites = StackMonitor::uniform_sites(cfg, 3, 3);
    std::vector<process::Point> points;
    for (std::size_t i = 0; i < 9; ++i) points.push_back(sites[i].location);
    const process::VariationModel model{device::Technology::tsmc65_like(),
                                        points};
    Rng rng{5};
    for (std::size_t d = 0; d < cfg.die_count(); ++d) {
      const process::DieVariation die = model.sample_die(rng);
      for (std::size_t i = 0; i < 9; ++i) {
        sites[d * 9 + i].vt_delta = die.at(i);
      }
    }
    network.set_uniform_power(0, Watt{1.5});
    network.set_temperatures(network.steady_state());
    monitor = std::make_unique<StackMonitor>(&network, PtSensor::Config{},
                                             sites, 6);
    monitor->calibrate_all(nullptr);
  }
};

TEST(FaultDetectorTest, HealthyFleetHasNoSuspects) {
  FleetFixture fx;
  const auto sample = fx.monitor->sample_all(nullptr);
  const FaultDetector detector;
  EXPECT_TRUE(detector.suspects(sample).empty());
}

TEST(FaultDetectorTest, LocalizesDeadSensor) {
  FleetFixture fx;
  fx.monitor->sensor(7).inject_fault(RoRole::kTdro, RoFault::kDead);
  const auto sample = fx.monitor->sample_all(nullptr);
  const FaultDetector detector;
  const auto suspects = detector.suspects(sample);
  ASSERT_EQ(suspects.size(), 1u);
  EXPECT_EQ(suspects[0], 7u);
  const auto verdicts = detector.analyze(sample);
  EXPECT_EQ(verdicts[7].reason, "self-reported degraded");
}

TEST(FaultDetectorTest, LocalizesStuckSensorSpatially) {
  FleetFixture fx;
  // Freeze site 4's TDRO at a frequency corresponding to a much hotter die:
  // locally plausible, spatially absurd.
  PtSensor& victim = fx.monitor->sensor(4);
  const Hertz frozen = victim.model_frequency(
      RoRole::kTdro, Volt{0.0}, Volt{0.0}, to_kelvin(Celsius{110.0}));
  victim.inject_fault(RoRole::kTdro, RoFault::kStuck, frozen);

  const auto sample = fx.monitor->sample_all(nullptr);
  const FaultDetector detector;
  const auto verdicts = detector.analyze(sample);
  ASSERT_EQ(verdicts.size(), sample.size());
  EXPECT_TRUE(verdicts[4].suspect);
  EXPECT_EQ(verdicts[4].reason, "spatially inconsistent with neighbours");
  // And nobody else got blamed.
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    if (i != 4) {
      EXPECT_FALSE(verdicts[i].suspect) << i;
    }
  }
}

TEST(FaultDetectorTest, LoneSensorCannotBeCrossChecked) {
  // One sensor per die: a stuck (non-degraded) fault is undetectable —
  // the detector must stay silent rather than guess.
  thermal::StackConfig cfg = thermal::StackConfig::four_die_stack();
  thermal::ThermalNetwork network{cfg};
  std::vector<SensorSite> sites = StackMonitor::uniform_sites(cfg, 1, 1);
  StackMonitor monitor{&network, PtSensor::Config{}, sites, 8};
  network.set_temperatures(network.steady_state());
  monitor.calibrate_all(nullptr);
  PtSensor& victim = monitor.sensor(0);
  victim.inject_fault(RoRole::kTdro, RoFault::kStuck,
                      victim.model_frequency(RoRole::kTdro, Volt{0.0},
                                             Volt{0.0}, Kelvin{390.0}));
  const auto sample = monitor.sample_all(nullptr);
  const FaultDetector detector;
  EXPECT_TRUE(detector.suspects(sample).empty());
}

TEST(FaultDetectorTest, SmoothGradientsAreNotFlagged) {
  // A broad hotspot creates a real but smooth gradient across the grid;
  // the threshold must tolerate it.
  FleetFixture fx;
  fx.network.add_hotspot(0, {1.5e-3, 1.5e-3}, Meter{1.8e-3}, Watt{3.0});
  fx.network.set_temperatures(fx.network.steady_state());
  const auto sample = fx.monitor->sample_all(nullptr);
  const FaultDetector detector;
  EXPECT_TRUE(detector.suspects(sample).empty());
}

TEST(FaultDetectorTest, PointHotspotOnASensorAliasesAsFault) {
  // Known limitation, pinned down: a hotspot concentrated on exactly one
  // sensor is spatially indistinguishable from that sensor sticking high.
  // The detector flags it — callers must disambiguate temporally (real
  // hotspots grow on thermal time constants; faults jump instantly).
  FleetFixture fx;
  fx.network.add_hotspot(0, {0.83e-3, 0.83e-3}, Meter{0.4e-3}, Watt{4.0});
  fx.network.set_temperatures(fx.network.steady_state());
  const auto sample = fx.monitor->sample_all(nullptr);
  const FaultDetector detector;
  const auto suspects = detector.suspects(sample);
  ASSERT_FALSE(suspects.empty());
  EXPECT_EQ(suspects[0], 0u);  // the sensor under the hotspot
}

// ---------------------------------------------------------------------------
// Equivalence of the per-die, cached-weight detector with the original
// whole-scan formulation, kept here verbatim as the oracle.

using SiteReading = StackMonitor::SiteReading;

std::vector<FaultDetector::Verdict> reference_analyze(
    const FaultDetector::Config& config_,
    const std::vector<StackMonitor::SiteReading>& sample) {
  using Verdict = FaultDetector::Verdict;
  std::vector<Verdict> verdicts(sample.size());
  for (std::size_t i = 0; i < sample.size(); ++i) {
    verdicts[i].site_index = sample[i].site_index;
    if (sample[i].degraded) {
      verdicts[i].suspect = true;
      verdicts[i].reason = "self-reported degraded";
    }
  }

  FieldEstimator::Config est_cfg;
  est_cfg.power = config_.idw_power;
  est_cfg.skip_degraded = true;
  const FieldEstimator estimator{est_cfg};

  // Leave-one-out deviation of site i against the current healthy set.  A
  // stuck sensor contaminates its neighbours' estimates, so suspects are
  // excluded greedily — worst violator first — until the set is consistent.
  auto deviation_of = [&](std::size_t i) -> std::optional<double> {
    std::vector<StackMonitor::SiteReading> reference;
    reference.reserve(sample.size());
    for (std::size_t j = 0; j < sample.size(); ++j) {
      if (j == i || verdicts[j].suspect) continue;
      if (sample[j].die != sample[i].die) continue;
      reference.push_back(sample[j]);
    }
    if (reference.empty()) return std::nullopt;  // cannot cross-check
    try {
      const double estimate =
          estimator
              .estimate_at(reference, sample[i].die, sample[i].location)
              .value();
      return sample[i].sensed.value() - estimate;
    } catch (const std::runtime_error&) {
      return std::nullopt;
    }
  };

  for (std::size_t round = 0; round < sample.size(); ++round) {
    double worst = config_.threshold.value();
    std::ptrdiff_t worst_index = -1;
    for (std::size_t i = 0; i < sample.size(); ++i) {
      if (verdicts[i].suspect) continue;
      const auto deviation = deviation_of(i);
      if (!deviation) continue;
      verdicts[i].deviation = Celsius{*deviation};
      if (std::abs(*deviation) > worst) {
        worst = std::abs(*deviation);
        worst_index = static_cast<std::ptrdiff_t>(i);
      }
    }
    if (worst_index < 0) break;
    verdicts[worst_index].suspect = true;
    verdicts[worst_index].reason = "spatially inconsistent with neighbours";
  }

  // Final deviations for the healthy sites, against the cleaned set.
  for (std::size_t i = 0; i < sample.size(); ++i) {
    if (verdicts[i].suspect) continue;
    if (const auto deviation = deviation_of(i)) {
      verdicts[i].deviation = Celsius{*deviation};
    }
  }
  return verdicts;
}

/// Bit-for-bit comparison: deviation by memcmp (NaN payloads and signed
/// zeros included), plus the flag, the reason and the site index.
::testing::AssertionResult same_verdicts(
    const std::vector<FaultDetector::Verdict>& got,
    const std::vector<FaultDetector::Verdict>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << " vs " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double a = got[i].deviation.value();
    const double b = want[i].deviation.value();
    if (std::memcmp(&a, &b, sizeof a) != 0 ||
        got[i].suspect != want[i].suspect || got[i].reason != want[i].reason ||
        got[i].site_index != want[i].site_index) {
      return ::testing::AssertionFailure()
             << "verdict " << i << ": deviation " << a << " vs " << b
             << ", suspect " << got[i].suspect << " vs " << want[i].suspect
             << ", reason '" << got[i].reason << "' vs '" << want[i].reason
             << "'";
    }
  }
  return ::testing::AssertionSuccess();
}

/// A random scan layout: dies (non-contiguous ids), site counts including
/// lone sites, grid or scattered locations with coincident and far-away
/// sites, and the die order in the scan blocked, interleaved or shuffled.
std::vector<SiteReading> random_layout(Rng& rng) {
  const auto die_count = static_cast<std::size_t>(rng.uniform_int(1, 5));
  std::vector<std::size_t> die_ids;
  while (die_ids.size() < die_count) {
    const auto id = static_cast<std::size_t>(rng.uniform_int(0, 9));
    if (std::find(die_ids.begin(), die_ids.end(), id) == die_ids.end()) {
      die_ids.push_back(id);
    }
  }
  const bool grid = rng.bernoulli(0.5);
  std::vector<SiteReading> sites;
  for (const std::size_t die : die_ids) {
    const auto m = static_cast<std::size_t>(
        rng.bernoulli(0.15) ? 1 : rng.uniform_int(0, 24));
    for (std::size_t k = 0; k < m; ++k) {
      SiteReading r;
      r.die = die;
      if (grid) {
        r.location = {0.5e-3 * static_cast<double>(k % 4),
                      0.5e-3 * static_cast<double>(k / 4)};
      } else {
        r.location = {rng.uniform(0.0, 3e-3), rng.uniform(0.0, 3e-3)};
      }
      const std::size_t before = sites.size() - k;  // this die's first site
      if (k > 0 && rng.bernoulli(0.05)) {  // coincident with a neighbour
        const auto other = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(k) - 1));
        r.location = sites[before + other].location;
        if (rng.bernoulli(0.5)) r.location.x += 1e-10;
      }
      if (rng.bernoulli(0.01)) r.location.x = 1e300;  // weight underflows
      sites.push_back(r);
    }
  }
  const auto order = rng.uniform_int(0, 2);
  if (order == 1) {  // interleave the dies round-robin
    std::vector<SiteReading> interleaved;
    for (std::size_t k = 0; interleaved.size() < sites.size(); ++k) {
      for (const std::size_t die : die_ids) {
        std::size_t seen = 0;
        for (const SiteReading& r : sites) {
          if (r.die == die && seen++ == k) interleaved.push_back(r);
        }
      }
    }
    sites = interleaved;
  } else if (order == 2) {
    std::vector<std::size_t> perm(sites.size());
    for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    rng.shuffle(perm);
    std::vector<SiteReading> shuffled;
    for (const std::size_t i : perm) shuffled.push_back(sites[i]);
    sites = shuffled;
  }
  for (std::size_t i = 0; i < sites.size(); ++i) sites[i].site_index = i;
  return sites;
}

/// Fresh readings on a layout: a smooth field, stuck outliers, degraded
/// and non-finite readings; with `integral`, whole-degree values so
/// deviations tie with each other and with an integral threshold.  A scan
/// carries NaN or infinite readings, never both, so every NaN in it has
/// the same bits whichever operand the arithmetic propagates.
void fill_readings(Rng& rng, std::vector<SiteReading>& sites, bool integral) {
  const double base = rng.uniform(30.0, 90.0);
  const double slope = rng.uniform(-4e3, 4e3);
  const bool nan_scan = rng.bernoulli(0.5);
  for (SiteReading& r : sites) {
    double t = base + slope * r.location.y + rng.gaussian(0.0, 0.5) +
               2.0 * static_cast<double>(r.die);
    if (rng.bernoulli(0.08)) t += rng.uniform(-40.0, 40.0);
    if (integral) t = std::round(t / 4.0) * 4.0;
    if (rng.bernoulli(0.02)) {
      const double inf = std::numeric_limits<double>::infinity();
      t = nan_scan ? std::numeric_limits<double>::quiet_NaN()
                   : (rng.bernoulli(0.5) ? inf : -inf);
    }
    r.sensed = Celsius{t};
    r.degraded = rng.bernoulli(0.05);
  }
}

void move_layout(Rng& rng, std::vector<SiteReading>& sites) {
  if (sites.empty()) return;
  const auto i = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(sites.size()) - 1));
  switch (rng.uniform_int(0, 3)) {
    case 0: sites[i].location.y += 0.25e-3; break;  // a site moves
    case 1: sites[i].die = 10; break;               // joins a new die
    case 2: sites.erase(sites.begin() +             // drops out
                        static_cast<std::ptrdiff_t>(i));
      break;
    default: std::reverse(sites.begin(), sites.end()); break;  // die order
  }
}

TEST(FaultDetectorEquivalence, RandomScansMatchReferenceBitForBit) {
  // Episodes of three scans on one detector instance: a cold cache, a warm
  // cache with fresh readings, then a changed layout.
  std::size_t scans = 0;
  std::size_t spatial_suspects = 0;
  std::size_t nan_deviations = 0;
  for (std::uint64_t seed = 1; seed <= 3400; ++seed) {
    Rng rng{seed};
    FaultDetector::Config config;
    const bool integral = rng.bernoulli(0.3);
    config.threshold = Celsius{integral ? 8.0 : rng.uniform(0.5, 20.0)};
    const double powers[] = {2.0, 2.0, 1.0, 3.0, 0.5};
    config.idw_power = powers[rng.uniform_int(0, 4)];
    const FaultDetector detector{config};

    std::vector<SiteReading> sites = random_layout(rng);
    for (int step = 0; step < 3; ++step) {
      if (step == 2) move_layout(rng, sites);
      fill_readings(rng, sites, integral);
      const auto got = detector.analyze(sites);
      const auto want = reference_analyze(config, sites);
      ASSERT_TRUE(same_verdicts(got, want)) << "seed " << seed << " scan "
                                            << step;
      ++scans;
      for (const auto& v : want) {
        if (v.reason == "spatially inconsistent with neighbours") {
          ++spatial_suspects;
        }
        if (std::isnan(v.deviation.value())) ++nan_deviations;
      }
    }
  }
  EXPECT_GE(scans, 10'000u);
  // The corpus really exercises the greedy exclusion and the NaN path.
  EXPECT_GT(spatial_suspects, 1000u);
  EXPECT_GT(nan_deviations, 100u);
}

TEST(FaultDetectorEquivalence, ThresholdTiesPickTheFirstSite) {
  // Two sites alone on a die deviate by exactly +-d from each other: equal
  // magnitudes, so the first one is excluded; at d == threshold neither is.
  const FaultDetector detector{FaultDetector::Config{Celsius{8.0}, 2.0}};
  for (const double gap : {8.0, 12.0}) {
    std::vector<SiteReading> scan(4);
    for (std::size_t i = 0; i < scan.size(); ++i) {
      scan[i].site_index = i;
      scan[i].die = i % 2;
      scan[i].location = {1e-3 * static_cast<double>(i / 2), 0.0};
      scan[i].sensed = Celsius{i < 2 ? 50.0 : 50.0 + gap};
    }
    const auto got = detector.analyze(scan);
    ASSERT_TRUE(same_verdicts(got, reference_analyze(
                                       FaultDetector::Config{Celsius{8.0},
                                                             2.0},
                                       scan)));
    EXPECT_EQ(got[0].suspect, gap > 8.0);
    EXPECT_EQ(got[1].suspect, gap > 8.0);
    EXPECT_FALSE(got[2].suspect);
    EXPECT_FALSE(got[3].suspect);
  }
}

TEST(FaultDetectorEquivalence, LayoutChangeOnSameInstanceRebuildsWeights) {
  // A stuck site is obvious on a tight cluster; move one neighbour far away
  // on the same detector and the verdicts must follow the new geometry,
  // not the cached weights.
  const FaultDetector::Config config{Celsius{8.0}, 2.0};
  const FaultDetector detector{config};
  std::vector<SiteReading> scan(5);
  for (std::size_t i = 0; i < scan.size(); ++i) {
    scan[i].site_index = i;
    scan[i].location = {1e-3 * static_cast<double>(i % 3),
                        1e-3 * static_cast<double>(i / 3)};
    scan[i].sensed = Celsius{40.0 + static_cast<double>(i)};
  }
  scan[2].sensed = Celsius{90.0};
  for (int step = 0; step < 4; ++step) {
    if (step == 1) scan[4].location = {0.2, 0.2};
    if (step == 2) scan[0].die = 1;
    if (step == 3) scan.pop_back();
    ASSERT_TRUE(same_verdicts(detector.analyze(scan),
                              reference_analyze(config, scan)))
        << "step " << step;
  }
  // A second detector that never saw the earlier layouts agrees too.
  ASSERT_TRUE(same_verdicts(FaultDetector{config}.analyze(scan),
                            reference_analyze(config, scan)));
}

TEST(FaultDetectorEquivalence, FixtureScansMatchReference) {
  FleetFixture fx;
  fx.monitor->sensor(7).inject_fault(RoRole::kTdro, RoFault::kDead);
  PtSensor& victim = fx.monitor->sensor(4);
  victim.inject_fault(RoRole::kTdro, RoFault::kStuck,
                      victim.model_frequency(RoRole::kTdro, Volt{0.0},
                                             Volt{0.0},
                                             to_kelvin(Celsius{110.0})));
  const FaultDetector detector;
  for (int scan = 0; scan < 3; ++scan) {
    const auto sample = fx.monitor->sample_all(nullptr);
    ASSERT_TRUE(same_verdicts(detector.analyze(sample),
                              reference_analyze(FaultDetector::Config{},
                                                sample)));
  }
}

TEST(JumpDetectorTest, FirstScanPrimesSilently) {
  FleetFixture fx;
  JumpDetector jump;
  EXPECT_TRUE(jump.feed(fx.monitor->sample_all(nullptr)).empty());
}

TEST(JumpDetectorTest, FaultJumpIsCaughtRealTransientIsNot) {
  FleetFixture fx;
  JumpDetector jump;
  (void)jump.feed(fx.monitor->sample_all(nullptr));

  // Real transient: the whole die heats together -> no flags.
  fx.network.set_uniform_power(0, Watt{6.0});
  fx.network.set_temperatures(fx.network.steady_state());
  EXPECT_TRUE(jump.feed(fx.monitor->sample_all(nullptr)).empty());

  // Fault: one sensor's TDRO sticks at a hot frequency between scans ->
  // only that site moves -> flagged.
  PtSensor& victim = fx.monitor->sensor(4);
  victim.inject_fault(RoRole::kTdro, RoFault::kStuck,
                      victim.model_frequency(RoRole::kTdro, Volt{0.0},
                                             Volt{0.0}, Kelvin{390.0}));
  const auto jumped = jump.feed(fx.monitor->sample_all(nullptr));
  ASSERT_EQ(jumped.size(), 1u);
  EXPECT_EQ(jumped[0], 4u);
}

TEST(JumpDetectorTest, ResetForgetsHistory) {
  FleetFixture fx;
  JumpDetector jump;
  (void)jump.feed(fx.monitor->sample_all(nullptr));
  jump.reset();
  // After reset the next feed primes again, even if the state moved a lot.
  fx.network.set_uniform_power(0, Watt{8.0});
  fx.network.set_temperatures(fx.network.steady_state());
  EXPECT_TRUE(jump.feed(fx.monitor->sample_all(nullptr)).empty());
}

TEST(JumpDetectorTest, PointHotspotDisambiguatedFromFault) {
  // The case the spatial detector cannot crack: a hotspot landing on one
  // sensor.  Temporally it is NOT a lone jump if it grows over several
  // scans while the die warms around it — approximate by applying the
  // hotspot and stepping the network briefly so neighbours move too.
  // (Scanned at a period long enough for lateral diffusion to reach the
  // neighbours; a scan much faster than the die's lateral time constant
  // cannot tell a point hotspot's first milliseconds from a fault.)
  FleetFixture fx;
  JumpDetector jump{{Celsius{6.0}, Celsius{0.8}}};
  (void)jump.feed(fx.monitor->sample_all(nullptr));
  fx.network.add_hotspot(0, {0.83e-3, 0.83e-3}, Meter{0.4e-3}, Watt{4.0});
  fx.network.step(Second{25e-3});
  const auto jumped = jump.feed(fx.monitor->sample_all(nullptr));
  EXPECT_TRUE(jumped.empty());
}

}  // namespace
}  // namespace tsvpt::core
