#include "process/tsv_stress.hpp"
#include "thermal/network.hpp"
#include "thermal/stack_config.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace tsvpt::thermal {
namespace {

StackConfig small_stack(std::size_t dies = 2, std::size_t grid = 4) {
  StackConfig cfg;
  DieGeometry die;
  die.width = Meter{5e-3};
  die.height = Meter{5e-3};
  die.thickness = Meter{100e-6};
  die.nx = grid;
  die.ny = grid;
  cfg.dies.assign(dies, die);
  cfg.bonds.assign(dies - 1, BondLayer{});
  cfg.tsv.centers = process::TsvStressField::grid_layout(
      die.width, die.height, 3, 3);
  return cfg;
}

TEST(StackConfig, ValidateCatchesInconsistencies) {
  StackConfig cfg = small_stack();
  cfg.bonds.clear();
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = small_stack();
  cfg.dies[0].nx = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = small_stack();
  cfg.sink_resistance = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  EXPECT_NO_THROW(StackConfig::four_die_stack().validate());
}

TEST(ThermalNetwork, NoPowerSettlesAtAmbient) {
  ThermalNetwork net{small_stack()};
  const auto field = net.steady_state();
  for (double t : field) {
    EXPECT_NEAR(t, net.config().ambient.value(), 1e-6);
  }
}

TEST(ThermalNetwork, SteadyStateEnergyBalance) {
  // In equilibrium the injected power must equal the heat leaving through
  // the boundaries; equivalently mean rise ~ P * R_effective.
  ThermalNetwork net{small_stack()};
  net.set_uniform_power(0, Watt{1.0});
  const auto field = net.steady_state();
  // Residual check: reapply the conductance operator.
  // (steady_state solved G T = P + Gb Tamb, so the per-node residual of
  // that equation should be tiny.)
  double max_t = 0.0;
  for (double t : field) max_t = std::max(max_t, t);
  const double ambient = net.config().ambient.value();
  // 1 W through ~2 K/W sink: average die-0 rise close to 2 K.
  EXPECT_GT(max_t, ambient + 1.0);
  EXPECT_LT(max_t, ambient + 10.0);
}

TEST(ThermalNetwork, MorePowerIsHotter) {
  ThermalNetwork net{small_stack()};
  net.set_uniform_power(0, Watt{0.5});
  const auto low = net.steady_state();
  net.set_uniform_power(0, Watt{2.0});
  const auto high = net.steady_state();
  for (std::size_t i = 0; i < low.size(); ++i) {
    EXPECT_GT(high[i], low[i]);
  }
}

TEST(ThermalNetwork, HeatSourceDieIsHottest) {
  ThermalNetwork net{small_stack(3)};
  net.set_uniform_power(2, Watt{1.0});  // top die heated
  const auto field = net.steady_state();
  net.set_temperatures(field);
  EXPECT_GT(net.max_temperature(2).value(), net.max_temperature(0).value());
}

TEST(ThermalNetwork, HotspotIsLocalized) {
  StackConfig cfg = small_stack(1, 8);
  ThermalNetwork net{cfg};
  net.add_hotspot(0, {1e-3, 1e-3}, Meter{0.4e-3}, Watt{1.0});
  EXPECT_NEAR(net.total_power().value(), 1.0, 1e-9);
  const auto field = net.steady_state();
  net.set_temperatures(field);
  const double near_spot = net.temperature_at(0, {1e-3, 1e-3}).value();
  const double far_corner = net.temperature_at(0, {4.7e-3, 4.7e-3}).value();
  EXPECT_GT(near_spot, far_corner + 0.5);
}

TEST(ThermalNetwork, TransientApproachesSteadyState) {
  ThermalNetwork net{small_stack()};
  net.set_uniform_power(0, Watt{1.5});
  const auto steady = net.steady_state();
  net.set_uniform_temperature(net.config().ambient);
  // Step well past the dominant time constant.
  for (int i = 0; i < 200; ++i) net.step(Second{2e-3});
  const auto& state = net.temperatures();
  for (std::size_t i = 0; i < steady.size(); ++i) {
    EXPECT_NEAR(state[i], steady[i], 0.05);
  }
}

TEST(ThermalNetwork, TransientFromSteadyStateStays) {
  ThermalNetwork net{small_stack()};
  net.set_uniform_power(0, Watt{1.0});
  net.set_temperatures(net.steady_state());
  const auto before = net.temperatures();
  net.step(Second{5e-3});
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(net.temperatures()[i], before[i], 1e-3);
  }
}

TEST(ThermalNetwork, CoolingIsMonotone) {
  ThermalNetwork net{small_stack()};
  net.set_uniform_temperature(Kelvin{350.0});
  double prev = 350.0;
  for (int i = 0; i < 10; ++i) {
    net.step(Second{1e-3});
    const double now = net.max_temperature(0).value();
    EXPECT_LE(now, prev + 1e-9);
    prev = now;
  }
  EXPECT_GT(prev, net.config().ambient.value() - 1e-9);
}

TEST(ThermalNetwork, TsvsImproveVerticalCoupling) {
  // Heat the top die: with a dense TSV field the bottom-to-top gradient
  // must shrink versus a via-free bond.
  StackConfig with_tsv = small_stack(2);
  with_tsv.tsv.centers = process::TsvStressField::grid_layout(
      Meter{5e-3}, Meter{5e-3}, 16, 16);
  StackConfig without_tsv = small_stack(2);
  without_tsv.tsv.centers.clear();

  auto gradient = [](StackConfig cfg) {
    ThermalNetwork net{std::move(cfg)};
    net.set_uniform_power(1, Watt{1.0});
    const auto field = net.steady_state();
    net.set_temperatures(field);
    return net.max_temperature(1).value() - net.max_temperature(0).value();
  };
  EXPECT_LT(gradient(with_tsv), gradient(without_tsv));
}

TEST(ThermalNetwork, ScalePower) {
  ThermalNetwork net{small_stack()};
  net.set_uniform_power(0, Watt{2.0});
  net.scale_die_power(0, 0.25);
  EXPECT_NEAR(net.total_power().value(), 0.5, 1e-12);
  EXPECT_THROW(net.scale_die_power(0, -1.0), std::invalid_argument);
}

TEST(ThermalNetwork, InterpolationMatchesCellCenters) {
  StackConfig cfg = small_stack(1, 4);
  ThermalNetwork net{cfg};
  net.add_hotspot(0, {2.5e-3, 2.5e-3}, Meter{1e-3}, Watt{1.0});
  net.set_temperatures(net.steady_state());
  const double cell_w = 5e-3 / 4.0;
  for (std::size_t ix = 0; ix < 4; ++ix) {
    for (std::size_t iy = 0; iy < 4; ++iy) {
      const process::Point center{(static_cast<double>(ix) + 0.5) * cell_w,
                                  (static_cast<double>(iy) + 0.5) * cell_w};
      EXPECT_NEAR(net.temperature_at(0, center).value(),
                  net.temperature_at(0, ix, iy).value(), 1e-9);
    }
  }
}

TEST(ThermalNetwork, IndexingAndBounds) {
  ThermalNetwork net{small_stack(2, 4)};
  EXPECT_EQ(net.node_count(), 32u);
  EXPECT_EQ(net.node_index(0, 0, 0), 0u);
  EXPECT_EQ(net.node_index(1, 0, 0), 16u);
  EXPECT_THROW((void)net.node_index(2, 0, 0), std::out_of_range);
  EXPECT_THROW((void)net.node_index(0, 4, 0), std::out_of_range);
}

TEST(ThermalNetwork, StableSubstepPositive) {
  ThermalNetwork net{small_stack()};
  EXPECT_GT(net.stable_substep().value(), 0.0);
  EXPECT_LT(net.stable_substep().value(), 1.0);
}

TEST(ThermalNetwork, StepRejectsNonPositiveDt) {
  ThermalNetwork net{small_stack()};
  EXPECT_THROW(net.step(Second{0.0}), std::invalid_argument);
}

TEST(ThermalNetwork, SetTemperaturesValidatesSize) {
  ThermalNetwork net{small_stack()};
  EXPECT_THROW(net.set_temperatures(std::vector<double>(5, 300.0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace tsvpt::thermal
