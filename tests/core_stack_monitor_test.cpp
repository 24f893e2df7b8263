#include "core/stack_monitor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "process/variation.hpp"

namespace tsvpt::core {
namespace {

thermal::StackConfig stack_config() {
  return thermal::StackConfig::four_die_stack();
}

std::vector<SensorSite> make_sites(const thermal::StackConfig& cfg) {
  std::vector<SensorSite> sites = StackMonitor::uniform_sites(cfg, 2, 2);
  // Attach process variation: one statistical die draw per stack layer.
  std::vector<process::Point> points;
  for (std::size_t i = 0; i < 4; ++i) {
    points.push_back(sites[i].location);  // same layout on every die
  }
  const process::VariationModel model{device::Technology::tsmc65_like(),
                                      points};
  Rng rng{1234};
  for (std::size_t d = 0; d < cfg.die_count(); ++d) {
    const process::DieVariation die = model.sample_die(rng);
    for (std::size_t i = 0; i < 4; ++i) {
      sites[d * 4 + i].vt_delta = die.at(i);
    }
  }
  return sites;
}

TEST(StackMonitor, UniformSitesCoverEveryDie) {
  const auto sites = StackMonitor::uniform_sites(stack_config(), 3, 2);
  EXPECT_EQ(sites.size(), 4u * 6u);
  for (const SensorSite& site : sites) {
    EXPECT_LT(site.die, 4u);
    EXPECT_GT(site.location.x, 0.0);
    EXPECT_LT(site.location.x, 5e-3);
  }
  EXPECT_THROW((void)StackMonitor::uniform_sites(stack_config(), 0, 1),
               std::invalid_argument);
}

TEST(StackMonitor, ConstructionValidation) {
  thermal::ThermalNetwork net{stack_config()};
  EXPECT_THROW((StackMonitor{nullptr, PtSensor::Config{}, make_sites(stack_config()), 1}),
               std::invalid_argument);
  EXPECT_THROW((StackMonitor{&net, PtSensor::Config{}, {}, 1}),
               std::invalid_argument);
  std::vector<SensorSite> bad = make_sites(stack_config());
  bad[0].die = 99;
  EXPECT_THROW((StackMonitor{&net, PtSensor::Config{}, bad, 1}),
               std::invalid_argument);
}

TEST(StackMonitor, SampleTracksThermalTruth) {
  thermal::ThermalNetwork net{stack_config()};
  net.set_uniform_power(0, Watt{1.5});
  net.set_temperatures(net.steady_state());

  StackMonitor monitor{&net, PtSensor::Config{}, make_sites(stack_config()),
                       99};
  monitor.calibrate_all(nullptr);
  const auto sample = monitor.sample_all(nullptr);
  ASSERT_EQ(sample.size(), 16u);
  for (const auto& reading : sample) {
    EXPECT_FALSE(reading.degraded);
    EXPECT_NEAR(reading.sensed.value(), reading.truth.value(), 2.5);
  }
}

TEST(StackMonitor, TruthMatchesNetworkQuery) {
  thermal::ThermalNetwork net{stack_config()};
  net.set_uniform_power(0, Watt{2.0});
  net.set_temperatures(net.steady_state());
  StackMonitor monitor{&net, PtSensor::Config{}, make_sites(stack_config()),
                       100};
  monitor.calibrate_all(nullptr);
  const auto sample = monitor.sample_all(nullptr);
  for (const auto& reading : sample) {
    const double expected =
        to_celsius(net.temperature_at(reading.die, reading.location)).value();
    EXPECT_DOUBLE_EQ(reading.truth.value(), expected);
  }
}

TEST(StackMonitor, ProcessMapRecoversTrueDeviation) {
  thermal::ThermalNetwork net{stack_config()};
  net.set_temperatures(net.steady_state());  // ambient, no power
  StackMonitor monitor{&net, PtSensor::Config{}, make_sites(stack_config()),
                       101};
  monitor.calibrate_all(nullptr);
  const auto map = monitor.process_map();
  ASSERT_EQ(map.size(), 16u);
  for (const auto& report : map) {
    EXPECT_NEAR(report.dvtn_hat.value(), report.dvtn_true.value(), 4e-3);
    EXPECT_NEAR(report.dvtp_hat.value(), report.dvtp_true.value(), 4e-3);
  }
}

TEST(StackMonitor, MaxSensedSelectsHotDie) {
  thermal::ThermalNetwork net{stack_config()};
  net.set_uniform_power(0, Watt{3.0});
  net.set_temperatures(net.steady_state());
  StackMonitor monitor{&net, PtSensor::Config{}, make_sites(stack_config()),
                       102};
  monitor.calibrate_all(nullptr);
  const auto sample = monitor.sample_all(nullptr);
  // Powered die 0 runs hotter than the top die.
  EXPECT_GT(StackMonitor::max_sensed(sample, 0).value(),
            StackMonitor::max_sensed(sample, 3).value() - 0.5);
  EXPECT_THROW((void)StackMonitor::max_sensed({}, 0), std::invalid_argument);
}

TEST(StackMonitor, SensorsHaveIndependentMismatch) {
  thermal::ThermalNetwork net{stack_config()};
  StackMonitor monitor{&net, PtSensor::Config{}, make_sites(stack_config()),
                       103};
  EXPECT_NE(monitor.sensor(0).mismatch()[0].nmos.value(),
            monitor.sensor(1).mismatch()[0].nmos.value());
}

TEST(StackMonitorSampleSite, MatchesSampleAllOrdering) {
  thermal::ThermalNetwork net{stack_config()};
  StackMonitor monitor{&net, PtSensor::Config{}, make_sites(stack_config()),
                       44};
  net.set_uniform_power(0, Watt{1.0});
  net.set_temperatures(net.steady_state());
  monitor.calibrate_all(nullptr);
  const auto all = monitor.sample_all(nullptr);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto one = monitor.sample_site(i, nullptr);
    EXPECT_EQ(one.site_index, all[i].site_index);
    EXPECT_EQ(one.die, all[i].die);
    EXPECT_DOUBLE_EQ(one.truth.value(), all[i].truth.value());
  }
  EXPECT_THROW((void)monitor.sample_site(99, nullptr), std::out_of_range);
}

}  // namespace
}  // namespace tsvpt::core
