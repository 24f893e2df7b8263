#include "thermal/leakage.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "thermal/network.hpp"

namespace tsvpt::thermal {
namespace {

StackConfig tiny_stack() {
  StackConfig cfg;
  DieGeometry die;
  die.nx = 4;
  die.ny = 4;
  cfg.dies.assign(2, die);
  cfg.bonds.assign(1, BondLayer{});
  cfg.sink_resistance = 3.0;
  return cfg;
}

TEST(LeakageSource, MatchesReferenceScale) {
  const auto fn = leakage_source(device::Technology::tsmc65_like(),
                                 Volt{1.0}, Watt{0.01}, Kelvin{318.15});
  EXPECT_NEAR(fn(318.15), 0.01, 1e-9);
}

TEST(LeakageSource, GrowsWithTemperatureAndClamps) {
  const auto fn = leakage_source(device::Technology::tsmc65_like(),
                                 Volt{1.0}, Watt{0.01}, Kelvin{318.15}, 5.0);
  // Exponential growth below the clamp (leakage roughly doubles per ~10 K).
  EXPECT_GT(fn(325.0), fn(318.15));
  EXPECT_GT(fn(332.0), fn(325.0));
  // Clamp engages at 5x the reference.
  EXPECT_DOUBLE_EQ(fn(600.0), 0.05);
  EXPECT_DOUBLE_EQ(fn(380.0), 0.05);
}

TEST(ThermalNetwork, LeakageRaisesSteadyState) {
  ThermalNetwork plain{tiny_stack()};
  plain.set_uniform_power(0, Watt{1.0});
  const auto cold = plain.steady_state();

  ThermalNetwork with_leak{tiny_stack()};
  with_leak.set_uniform_power(0, Watt{1.0});
  with_leak.set_leakage_power(
      0, leakage_source(device::Technology::tsmc65_like(), Volt{1.0},
                        Watt{0.005}, Kelvin{298.15}));
  const auto hot = with_leak.steady_state();
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_GT(hot[i], cold[i]);
  }
}

TEST(ThermalNetwork, ClearLeakageRestoresLinear) {
  ThermalNetwork net{tiny_stack()};
  net.set_uniform_power(0, Watt{1.0});
  const auto baseline = net.steady_state();
  net.set_leakage_power(
      0, leakage_source(device::Technology::tsmc65_like(), Volt{1.0},
                        Watt{0.01}, Kelvin{298.15}));
  net.clear_leakage_power();
  const auto after = net.steady_state();
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_DOUBLE_EQ(after[i], baseline[i]);
  }
}

TEST(ThermalNetwork, TransientMatchesFeedbackSteadyState) {
  ThermalNetwork net{tiny_stack()};
  net.set_uniform_power(0, Watt{0.8});
  net.set_leakage_power(
      0, leakage_source(device::Technology::tsmc65_like(), Volt{1.0},
                        Watt{0.01}, Kelvin{298.15}));
  const auto steady = net.steady_state();
  net.set_uniform_temperature(net.config().ambient);
  for (int i = 0; i < 300; ++i) net.step(Second{2e-3});
  for (std::size_t i = 0; i < steady.size(); ++i) {
    EXPECT_NEAR(net.temperatures()[i], steady[i], 0.05);
  }
}

TEST(ThermalNetwork, LeakagePowerQueryTracksState) {
  ThermalNetwork net{tiny_stack()};
  net.set_leakage_power(
      0, leakage_source(device::Technology::tsmc65_like(), Volt{1.0},
                        Watt{0.01}, Kelvin{298.15}));
  net.set_uniform_temperature(Kelvin{298.15});
  // 16 cells x 0.01 W at the reference temperature.
  EXPECT_NEAR(net.leakage_power().value(), 0.16, 1e-9);
  net.set_uniform_temperature(Kelvin{340.0});
  EXPECT_GT(net.leakage_power().value(), 0.16);
}

TEST(ThermalNetwork, RunawayThrows) {
  StackConfig cfg = tiny_stack();
  cfg.sink_resistance = 50.0;  // nearly adiabatic
  ThermalNetwork net{cfg};
  net.set_uniform_power(0, Watt{2.0});
  // Unclamped-ish exponential with a strong base: no equilibrium.
  net.set_leakage_power(
      0, leakage_source(device::Technology::tsmc65_like(), Volt{1.0},
                        Watt{0.05}, Kelvin{298.15}, 1e9));
  net.set_runaway_limit(Kelvin{800.0});
  EXPECT_THROW((void)net.steady_state(), std::runtime_error);
}

TEST(ThermalNetwork, RejectsInvalidLeakage) {
  ThermalNetwork net{tiny_stack()};
  EXPECT_THROW(net.set_leakage_power(5, [](double) { return 0.0; }),
               std::out_of_range);
  net.set_leakage_power(0, [](double) { return -1.0; });
  EXPECT_THROW((void)net.leakage_power(), std::runtime_error);
}

TEST(ThermalNetwork, ScalePowerLeavesLeakageAlone) {
  ThermalNetwork net{tiny_stack()};
  net.set_uniform_power(0, Watt{1.0});
  net.set_leakage_power(
      0, leakage_source(device::Technology::tsmc65_like(), Volt{1.0},
                        Watt{0.01}, Kelvin{298.15}));
  net.set_uniform_temperature(Kelvin{298.15});
  const double leak_before = net.leakage_power().value();
  net.scale_die_power(0, 0.5);
  EXPECT_NEAR(net.total_power().value(), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(net.leakage_power().value(), leak_before);
}

}  // namespace
}  // namespace tsvpt::thermal
