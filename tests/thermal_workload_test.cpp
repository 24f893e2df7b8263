#include "thermal/workload.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace tsvpt::thermal {
namespace {

StackConfig two_die_stack() {
  StackConfig cfg;
  DieGeometry die;
  die.nx = 4;
  die.ny = 4;
  cfg.dies.assign(2, die);
  cfg.bonds.assign(1, BondLayer{});
  return cfg;
}

Workload simple_workload() {
  WorkloadPhase a;
  a.name = "a";
  a.duration = Second{1e-3};
  a.directives.push_back(
      {PowerDirective::Kind::kUniform, 0, Watt{1.0}, {}, Meter{0.0}});
  WorkloadPhase b;
  b.name = "b";
  b.duration = Second{2e-3};
  b.directives.push_back(
      {PowerDirective::Kind::kUniform, 1, Watt{0.5}, {}, Meter{0.0}});
  return Workload{{a, b}};
}

TEST(Workload, TotalDuration) {
  EXPECT_DOUBLE_EQ(simple_workload().total_duration().value(), 3e-3);
}

TEST(Workload, PhaseAtBoundariesAndClamp) {
  const Workload w = simple_workload();
  EXPECT_EQ(w.phase_at(Second{0.0}), 0u);
  EXPECT_EQ(w.phase_at(Second{0.9e-3}), 0u);
  EXPECT_EQ(w.phase_at(Second{1.0e-3}), 1u);
  EXPECT_EQ(w.phase_at(Second{2.9e-3}), 1u);
  // Past the end: clamps to the last phase.
  EXPECT_EQ(w.phase_at(Second{10.0}), 1u);
}

TEST(Workload, RejectsNonPositiveDurations) {
  WorkloadPhase bad;
  bad.duration = Second{0.0};
  EXPECT_THROW((Workload{{bad}}), std::invalid_argument);
}

TEST(Workload, ApplyProgramsTheActivePhase) {
  ThermalNetwork net{two_die_stack()};
  const Workload w = simple_workload();
  w.apply(net, Second{0.5e-3});
  EXPECT_NEAR(net.total_power().value(), 1.0, 1e-12);
  EXPECT_NEAR(net.cell_power(0, 0, 0).value(), 1.0 / 16.0, 1e-12);
  w.apply(net, Second{1.5e-3});
  EXPECT_NEAR(net.total_power().value(), 0.5, 1e-12);
  EXPECT_NEAR(net.cell_power(0, 0, 0).value(), 0.0, 1e-12);
}

TEST(Workload, BurstIdleAlternates) {
  const StackConfig cfg = two_die_stack();
  const Workload w =
      Workload::burst_idle(cfg, Watt{2.0}, Watt{0.1}, Second{2e-3}, 3);
  ASSERT_EQ(w.phases().size(), 6u);
  EXPECT_DOUBLE_EQ(w.total_duration().value(), 6e-3);

  ThermalNetwork net{cfg};
  w.apply(net, Second{0.0});  // burst phase
  const double burst_power = net.total_power().value();
  w.apply(net, Second{1.5e-3});  // idle phase
  const double idle_power = net.total_power().value();
  EXPECT_GT(burst_power, idle_power);
  EXPECT_NEAR(idle_power, 0.2, 1e-9);  // 2 dies x 0.1 W
}

TEST(Workload, BurstIdleHotspotMigrates) {
  const StackConfig cfg = two_die_stack();
  const Workload w =
      Workload::burst_idle(cfg, Watt{2.0}, Watt{0.0}, Second{2e-3}, 2);
  ThermalNetwork net{cfg};
  w.apply(net, Second{0.0});
  const double corner_a_first = net.cell_power(0, 0, 0).value();
  w.apply(net, Second{2.0e-3});  // second cycle's burst
  const double corner_a_second = net.cell_power(0, 0, 0).value();
  EXPECT_GT(corner_a_first, corner_a_second);
}

TEST(Workload, BurstIdleLongerRunSharesThePrefix) {
  // A fleet sizes its workload from the run length; a longer workload must
  // select the same phase and program the same map at every time the
  // shorter one covers (frames stay byte-identical).
  const StackConfig cfg = two_die_stack();
  const Second period{50e-3};
  constexpr std::size_t kShort = 3;
  const Workload shorter =
      Workload::burst_idle(cfg, Watt{5.0}, Watt{0.25}, period, kShort);
  const Workload longer =
      Workload::burst_idle(cfg, Watt{5.0}, Watt{0.25}, period, 40);
  ThermalNetwork a{cfg};
  ThermalNetwork b{cfg};
  const auto& die = cfg.dies[0];
  for (double t = 0.0; t < kShort * period.value(); t += 0.25e-3) {
    ASSERT_EQ(shorter.phase_at(Second{t}), longer.phase_at(Second{t}))
        << "t = " << t;
    shorter.apply(a, Second{t});
    longer.apply(b, Second{t});
    for (std::size_t d = 0; d < cfg.die_count(); ++d) {
      for (std::size_t ix = 0; ix < die.nx; ++ix) {
        for (std::size_t iy = 0; iy < die.ny; ++iy) {
          ASSERT_EQ(a.cell_power(d, ix, iy).value(),
                    b.cell_power(d, ix, iy).value());
        }
      }
    }
  }
}

TEST(Workload, BurstIdleValidation) {
  const StackConfig cfg = two_die_stack();
  EXPECT_THROW(
      (void)Workload::burst_idle(cfg, Watt{1.0}, Watt{0.1}, Second{1e-3}, 0),
      std::invalid_argument);
}

TEST(Workload, RandomWorkloadIsBoundedAndReproducible) {
  const StackConfig cfg = two_die_stack();
  Rng rng_a{42};
  Rng rng_b{42};
  const Workload a = Workload::random(cfg, rng_a, 5, Watt{3.0}, Second{1e-3});
  const Workload b = Workload::random(cfg, rng_b, 5, Watt{3.0}, Second{1e-3});
  ASSERT_EQ(a.phases().size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(a.phases()[i].duration.value(),
                     b.phases()[i].duration.value());
    EXPECT_LE(a.phases()[i].duration.value(), 1e-3);
    for (const PowerDirective& d : a.phases()[i].directives) {
      EXPECT_LE(d.total.value(), 3.0);
      EXPECT_GE(d.total.value(), 0.0);
    }
  }
}

}  // namespace
}  // namespace tsvpt::thermal
