// Fleet-level fault detection: a sensor that dies or sticks cannot always
// tell you so (a stuck oscillator still produces a confident-looking
// temperature).  But sensors share a die: the temperature field is smooth,
// so each reading can be cross-checked against the leave-one-out spatial
// estimate from its neighbours.  Suspects are excluded greedily (worst
// violator first) so a single stuck sensor cannot contaminate its
// neighbours' estimates into false positives.
//
// Cost model.  Dies are independent (flagging a site on one die never moves
// another die's estimates), so the greedy exclusion runs per die: one round
// is O(m_d^2) multiply-adds for a die of m_d sites, and a scan with k_d
// suspects on die d costs (k_d + 1) rounds there.  The inverse-distance
// weights depend only on where the sites sit, so each detector caches one
// weight table per die position (dies in order of first appearance in the
// scan) and rebuilds it only when that die's locations stop comparing
// exactly equal — memory is bounded by sum m_d^2 doubles of the widest scan
// seen, independent of how many frames or stacks pass through.  Each
// estimate equals FieldEstimator::estimate_at over the die's healthy
// readings bit for bit: same distances, same summation order.
//
// Ownership.  analyze() is const but fills that cache, so one detector must
// not be shared across threads: give each thread (each Aggregator shard,
// each HealthSupervisor) its own.
//
// Known limitation (pinned by tests): a hotspot concentrated on exactly one
// sensor is spatially indistinguishable from that sensor sticking high, and
// is flagged.  Disambiguation is temporal — real hotspots grow on thermal
// time constants, faults jump between consecutive scans.  The caller that
// owns the scan history and performs that disambiguation is
// core::HealthSupervisor, which quarantines a single-scan jump immediately
// but lets a multi-scan thermal ramp (the whole neighbourhood moving) pass
// (pinned by HealthSupervisorTest.SingleScanJumpQuarantinedHotspotRampIsNot).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/stack_monitor.hpp"
#include "process/geometry.hpp"

namespace tsvpt::core {

class FaultDetector {
 public:
  struct Config {
    /// A reading deviating more than this from its neighbours' estimate is
    /// suspect.  Set comfortably above sensor accuracy + real gradients.
    Celsius threshold{8.0};
    /// IDW exponent for the leave-one-out estimate.
    double idw_power = 2.0;
  };

  struct Verdict {
    std::size_t site_index = 0;
    bool suspect = false;
    /// Deviation from the leave-one-out estimate (0 when not computable).
    Celsius deviation{0.0};
    std::string reason;  // empty when healthy
  };

  FaultDetector() = default;
  explicit FaultDetector(Config config) : config_(config) {}

  /// Analyze one scan.  Verdicts are aligned with the sample's order.
  /// Not thread-safe: reuses this detector's per-die weight cache.
  [[nodiscard]] std::vector<Verdict> analyze(
      const std::vector<StackMonitor::SiteReading>& sample) const;

  /// Indices of suspect sites in the sample.
  [[nodiscard]] std::vector<std::size_t> suspects(
      const std::vector<StackMonitor::SiteReading>& sample) const;

 private:
  /// One die position of the scan: its sites plus the cached weights.
  struct DieState {
    std::size_t die = 0;
    /// Sample indices on this die, ascending (scratch, refilled per scan).
    std::vector<std::size_t> members;
    /// Sensed value and exclusion flag per member (scratch).
    std::vector<double> sensed;
    std::vector<char> excluded;
    /// The layout `weights` was built for, and its m x m table: row a holds
    /// 1 / d(a, b)^idw_power, or kCoincident where d(a, b) < 1e-9.
    std::vector<process::Point> locations;
    std::vector<double> weights;
  };

  void analyze_die(const std::vector<StackMonitor::SiteReading>& sample,
                   DieState& die, std::vector<Verdict>& verdicts) const;

  Config config_{};
  mutable std::vector<DieState> dies_;
};

/// Temporal disambiguation between faults and real thermal events: feed it
/// consecutive scans; a site whose reading jumps faster than physics allows
/// — while its same-die neighbours barely move — is a fault, not a hotspot
/// (silicon heats every nearby sensor together; electronics break alone).
class JumpDetector {
 public:
  struct Config {
    /// A site moving more than this between scans is a candidate jump.
    Celsius jump_threshold{6.0};
    /// ...unless its die's other sites moved more than this too (a real
    /// transient moves the neighbourhood).
    Celsius neighbour_allowance{3.0};
  };

  JumpDetector() = default;
  explicit JumpDetector(Config config) : config_(config) {}

  /// Feed the next scan (sites must keep the same order between scans).
  /// Returns the site indices that jumped alone.  The first scan primes the
  /// history and returns nothing.
  [[nodiscard]] std::vector<std::size_t> feed(
      const std::vector<StackMonitor::SiteReading>& scan);

  void reset() { previous_.clear(); }

 private:
  Config config_{};
  std::vector<StackMonitor::SiteReading> previous_;
};

}  // namespace tsvpt::core
