#include "core/fault_detector.hpp"

#include <cmath>
#include <optional>

namespace tsvpt::core {

namespace {

/// Weight-table marker for a coincident pair: the estimate is exactly that
/// reading (real weights are never negative).
constexpr double kCoincident = -1.0;

}  // namespace

std::vector<FaultDetector::Verdict> FaultDetector::analyze(
    const std::vector<StackMonitor::SiteReading>& sample) const {
  std::vector<Verdict> verdicts(sample.size());
  for (std::size_t i = 0; i < sample.size(); ++i) {
    verdicts[i].site_index = sample[i].site_index;
    if (sample[i].degraded) {
      verdicts[i].suspect = true;
      verdicts[i].reason = "self-reported degraded";
    }
  }

  // Group the scan by die, die positions in order of first appearance.
  std::size_t used = 0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    std::size_t g = 0;
    while (g < used && dies_[g].die != sample[i].die) ++g;
    if (g == used) {
      if (used == dies_.size()) dies_.emplace_back();
      dies_[g].die = sample[i].die;
      dies_[g].members.clear();
      ++used;
    }
    dies_[g].members.push_back(i);
  }
  for (std::size_t g = 0; g < used; ++g) {
    analyze_die(sample, dies_[g], verdicts);
  }
  return verdicts;
}

void FaultDetector::analyze_die(
    const std::vector<StackMonitor::SiteReading>& sample, DieState& die,
    std::vector<Verdict>& verdicts) const {
  const std::size_t m = die.members.size();
  bool same_layout = die.locations.size() == m;
  for (std::size_t a = 0; same_layout && a < m; ++a) {
    same_layout = die.locations[a] == sample[die.members[a]].location;
  }
  if (!same_layout) {
    die.locations.resize(m);
    for (std::size_t a = 0; a < m; ++a) {
      die.locations[a] = sample[die.members[a]].location;
    }
    die.weights.assign(m * m, 0.0);
    for (std::size_t a = 0; a < m; ++a) {
      for (std::size_t b = 0; b < m; ++b) {
        if (b == a) continue;
        const double d = die.locations[a].distance_to(die.locations[b]);
        die.weights[a * m + b] =
            d < 1e-9 ? kCoincident : 1.0 / std::pow(d, config_.idw_power);
      }
    }
  }
  die.sensed.resize(m);
  die.excluded.resize(m);
  for (std::size_t a = 0; a < m; ++a) {
    die.sensed[a] = sample[die.members[a]].sensed.value();
    die.excluded[a] = verdicts[die.members[a]].suspect ? 1 : 0;
  }

  // Leave-one-out deviation of member a against the die's current healthy
  // set: FieldEstimator::estimate_at's inverse-distance sum, same order
  // (ascending sample index), same exact return on a coincident reading.
  auto deviation_of = [&](std::size_t a) -> std::optional<double> {
    const double* row = die.weights.data() + a * m;
    double weight_sum = 0.0;
    double acc = 0.0;
    for (std::size_t b = 0; b < m; ++b) {
      if (b == a || die.excluded[b] != 0) continue;
      const double w = row[b];
      if (w == kCoincident) return die.sensed[a] - die.sensed[b];
      weight_sum += w;
      acc += w * die.sensed[b];
    }
    if (weight_sum == 0.0) return std::nullopt;  // cannot cross-check
    return die.sensed[a] - acc / weight_sum;
  };

  // A stuck sensor contaminates its neighbours' estimates, so suspects are
  // excluded greedily — worst violator first — until the set is consistent.
  // Every round rescores each healthy site, so the round that finds no
  // violator has already left each deviation against the cleaned set.
  for (;;) {
    double worst = config_.threshold.value();
    std::size_t worst_member = m;
    for (std::size_t a = 0; a < m; ++a) {
      if (die.excluded[a] != 0) continue;
      const auto deviation = deviation_of(a);
      if (!deviation) continue;
      verdicts[die.members[a]].deviation = Celsius{*deviation};
      if (std::abs(*deviation) > worst) {
        worst = std::abs(*deviation);
        worst_member = a;
      }
    }
    if (worst_member == m) break;
    die.excluded[worst_member] = 1;
    Verdict& verdict = verdicts[die.members[worst_member]];
    verdict.suspect = true;
    verdict.reason = "spatially inconsistent with neighbours";
  }
}

std::vector<std::size_t> FaultDetector::suspects(
    const std::vector<StackMonitor::SiteReading>& sample) const {
  std::vector<std::size_t> out;
  for (const Verdict& verdict : analyze(sample)) {
    if (verdict.suspect) out.push_back(verdict.site_index);
  }
  return out;
}

std::vector<std::size_t> JumpDetector::feed(
    const std::vector<StackMonitor::SiteReading>& scan) {
  std::vector<std::size_t> jumped;
  if (previous_.size() == scan.size()) {
    for (std::size_t i = 0; i < scan.size(); ++i) {
      const double own_move =
          std::abs(scan[i].sensed.value() - previous_[i].sensed.value());
      if (own_move <= config_.jump_threshold.value()) continue;
      // How much did the rest of this die move?
      double neighbour_move = 0.0;
      std::size_t neighbours = 0;
      for (std::size_t j = 0; j < scan.size(); ++j) {
        if (j == i || scan[j].die != scan[i].die) continue;
        neighbour_move += std::abs(scan[j].sensed.value() -
                                   previous_[j].sensed.value());
        ++neighbours;
      }
      if (neighbours == 0) continue;  // lone sensor: cannot disambiguate
      neighbour_move /= static_cast<double>(neighbours);
      if (neighbour_move < config_.neighbour_allowance.value()) {
        jumped.push_back(scan[i].site_index);
      }
    }
  }
  previous_ = scan;
  return jumped;
}

}  // namespace tsvpt::core
