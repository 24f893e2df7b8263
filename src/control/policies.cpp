#include "control/policies.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace tsvpt::control {

namespace {

constexpr double kEpsilonFraction = 1e-12;

DieCommand command_at(const Ladder& ladder, std::size_t level) {
  DieCommand cmd;
  cmd.level = std::min(level, ladder.size() - 1);
  cmd.relative_frequency = ladder[cmd.level].relative_frequency;
  cmd.power_scale = ladder[cmd.level].power_scale;
  return cmd;
}

std::size_t resolve_level(const Ladder& ladder, std::size_t level) {
  return level == kLadderBottom ? ladder.size() - 1
                                : std::min(level, ladder.size() - 1);
}

void validate_common(const PolicyConfig& config) {
  validate_ladder(config.ladder);
  if (!(config.floor < config.ceiling)) {
    throw std::invalid_argument{"PolicyConfig: floor must be below ceiling"};
  }
}

/// Worst-case baseline: every die parked at one rung, sensing ignored.
class StaticWorstCasePolicy final : public Policy {
 public:
  StaticWorstCasePolicy(const PolicyConfig& config, std::size_t die_count)
      : ladder_(config.ladder), die_count_(die_count) {
    validate_ladder(ladder_);
    level_ = resolve_level(ladder_, config.static_level);
  }

  [[nodiscard]] const char* name() const override { return "static"; }

  [[nodiscard]] Actuation decide(const StackObservation&) override {
    return safe_actuation();
  }

  [[nodiscard]] Actuation safe_actuation() const override {
    Actuation act;
    act.dies.assign(die_count_, command_at(ladder_, level_));
    return act;
  }

  void reset() override {}

 private:
  Ladder ladder_;
  std::size_t die_count_;
  std::size_t level_ = 0;
};

/// Per-die ladder governor with hysteresis — one LadderStepper walk per
/// die, each starting worst-case-safe at the bottom rung.
class DvfsLadderPolicy final : public Policy {
 public:
  DvfsLadderPolicy(const PolicyConfig& config, std::size_t die_count)
      : ladder_(config.ladder),
        stepper_{config.ceiling, config.floor},
        levels_(die_count, 0) {
    validate_common(config);
    reset();
  }

  [[nodiscard]] const char* name() const override { return "dvfs"; }

  [[nodiscard]] Actuation decide(const StackObservation& obs) override {
    Actuation act;
    act.dies.resize(levels_.size());
    for (std::size_t d = 0; d < levels_.size(); ++d) {
      const bool blind = d >= obs.dies.size() || obs.dies[d].blind();
      if (blind) {
        levels_[d] = ladder_.size() - 1;  // never actuate on a dead sensor
      } else {
        levels_[d] =
            stepper_.step(levels_[d], ladder_.size(), obs.dies[d].max_sensed);
      }
      act.dies[d] = command_at(ladder_, levels_[d]);
    }
    return act;
  }

  [[nodiscard]] Actuation safe_actuation() const override {
    Actuation act;
    act.dies.assign(levels_.size(), command_at(ladder_, ladder_.size() - 1));
    return act;
  }

  void reset() override {
    std::fill(levels_.begin(), levels_.end(), ladder_.size() - 1);
  }

 private:
  Ladder ladder_;
  LadderStepper stepper_;
  std::vector<std::size_t> levels_;
};

/// Reactive clock/power gating: a hysteretic trip per die.  Gated dies run
/// at the gate fraction with zero work; everything else runs nominal.
class ReactiveGatingPolicy final : public Policy {
 public:
  ReactiveGatingPolicy(const PolicyConfig& config, std::size_t die_count)
      : ladder_(config.ladder), gate_scale_(config.gate_power_scale) {
    validate_ladder(ladder_);
    if (gate_scale_ < 0.0 || gate_scale_ > 1.0) {
      throw std::invalid_argument{"PolicyConfig: gate_power_scale"};
    }
    trips_.reserve(die_count);
    for (std::size_t d = 0; d < die_count; ++d) {
      trips_.emplace_back(config.gate_on, config.gate_off);
    }
  }

  [[nodiscard]] const char* name() const override { return "gating"; }

  [[nodiscard]] Actuation decide(const StackObservation& obs) override {
    Actuation act;
    act.dies.resize(trips_.size());
    for (std::size_t d = 0; d < trips_.size(); ++d) {
      const bool blind = d >= obs.dies.size() || obs.dies[d].blind();
      bool gated;
      if (blind) {
        gated = true;  // fail safe, and resync the trip with reality
        trips_[d].update(Celsius{1e6});
      } else {
        gated = trips_[d].update(obs.dies[d].max_sensed);
      }
      act.dies[d] = gated ? gated_command() : command_at(ladder_, 0);
    }
    return act;
  }

  [[nodiscard]] Actuation safe_actuation() const override {
    Actuation act;
    act.dies.assign(trips_.size(), gated_command());
    return act;
  }

  void reset() override {
    for (Hysteresis& trip : trips_) trip.reset();
  }

 private:
  [[nodiscard]] DieCommand gated_command() const {
    DieCommand cmd;
    cmd.level = ladder_.size() - 1;
    cmd.relative_frequency = 0.0;
    cmd.power_scale = gate_scale_;
    cmd.gated = true;
    return cmd;
  }

  Ladder ladder_;
  double gate_scale_;
  std::vector<Hysteresis> trips_;
};

/// Inter-die task migration: a dvfs backstop keeps every die legal while a
/// persistent set of power moves drains the hottest die toward the coolest.
/// The move set grows or retracts one `migrate_step` at a time, under a
/// cooldown, and only while the hot/cool gap exceeds the margin — which is
/// what keeps two equally-hot dies from trading work forever.
class MigrationPolicy final : public Policy {
 public:
  MigrationPolicy(const PolicyConfig& config, std::size_t die_count)
      : ladder_(config.ladder),
        stepper_{config.ceiling, config.floor},
        trip_(config.migrate_trip),
        margin_(config.migrate_margin_c),
        step_(config.migrate_step),
        cap_(config.migrate_cap),
        cooldown_scans_(config.migrate_cooldown_scans),
        levels_(die_count, 0) {
    validate_common(config);
    if (step_ <= 0.0 || step_ > 1.0) {
      throw std::invalid_argument{"PolicyConfig: migrate_step"};
    }
    if (cap_ <= 0.0 || cap_ > 1.0 || cap_ < step_) {
      throw std::invalid_argument{"PolicyConfig: migrate_cap"};
    }
    if (margin_ < 0.0) {
      throw std::invalid_argument{"PolicyConfig: migrate_margin_c"};
    }
    reset();
  }

  [[nodiscard]] const char* name() const override { return "migration"; }

  [[nodiscard]] Actuation decide(const StackObservation& obs) override {
    Actuation act;
    act.dies.resize(levels_.size());
    for (std::size_t d = 0; d < levels_.size(); ++d) {
      const bool blind = d >= obs.dies.size() || obs.dies[d].blind();
      if (blind) {
        levels_[d] = ladder_.size() - 1;
      } else {
        levels_[d] =
            stepper_.step(levels_[d], ladder_.size(), obs.dies[d].max_sensed);
      }
      act.dies[d] = command_at(ladder_, levels_[d]);
    }
    rebalance(obs);
    act.migrations = moves_;
    return act;
  }

  [[nodiscard]] Actuation safe_actuation() const override {
    Actuation act;
    act.dies.assign(levels_.size(), command_at(ladder_, ladder_.size() - 1));
    return act;
  }

  void reset() override {
    std::fill(levels_.begin(), levels_.end(), ladder_.size() - 1);
    moves_.clear();
    since_move_ = cooldown_scans_;  // first decision may move immediately
  }

 private:
  void rebalance(const StackObservation& obs) {
    if (since_move_ < cooldown_scans_) {
      ++since_move_;
      return;
    }
    // Hottest and coolest sighted dies; ties break toward the lower index.
    std::size_t hot = levels_.size(), cool = levels_.size();
    for (std::size_t d = 0; d < std::min(levels_.size(), obs.dies.size());
         ++d) {
      if (obs.dies[d].blind()) continue;  // never a source or a target
      if (hot == levels_.size() || obs.dies[d].max_sensed > obs.dies[hot].max_sensed) {
        hot = d;
      }
      if (cool == levels_.size() ||
          obs.dies[d].max_sensed < obs.dies[cool].max_sensed) {
        cool = d;
      }
    }
    if (hot == levels_.size() || cool == levels_.size() || hot == cool) {
      return;
    }
    if (!(obs.dies[hot].max_sensed > trip_)) return;
    if (obs.dies[hot].max_sensed.value() - obs.dies[cool].max_sensed.value() <=
        margin_) {
      return;
    }
    // Undo flow into the hot die before ever opening a reverse lane —
    // retract-first is the other half of the no-ping-pong guarantee.
    for (auto it = moves_.begin(); it != moves_.end(); ++it) {
      if (it->to_die != hot) continue;
      it->fraction -= step_;
      if (it->fraction <= kEpsilonFraction) moves_.erase(it);
      since_move_ = 0;
      return;
    }
    double outflow = 0.0;
    for (const Migration& m : moves_) {
      if (m.from_die == hot) outflow += m.fraction;
    }
    const double room = cap_ - outflow;
    if (room <= kEpsilonFraction) return;
    const double grow = std::min(step_, room);
    for (Migration& m : moves_) {
      if (m.from_die == hot && m.to_die == cool) {
        m.fraction += grow;
        since_move_ = 0;
        return;
      }
    }
    moves_.push_back(Migration{hot, cool, grow});
    since_move_ = 0;
  }

  Ladder ladder_;
  LadderStepper stepper_;
  Celsius trip_;
  double margin_;
  double step_;
  double cap_;
  std::uint64_t cooldown_scans_;
  std::vector<std::size_t> levels_;
  std::vector<Migration> moves_;
  std::uint64_t since_move_ = 0;
};

/// Feeds the inner policy the stack-wide view on every die.
class StackWidePolicy final : public Policy {
 public:
  explicit StackWidePolicy(std::unique_ptr<Policy> inner)
      : inner_(std::move(inner)) {
    if (inner_ == nullptr) throw std::invalid_argument{"stack_wide: null"};
    name_ = std::string{"stack-"} + inner_->name();
  }

  [[nodiscard]] const char* name() const override { return name_.c_str(); }

  [[nodiscard]] Actuation decide(const StackObservation& obs) override {
    DieObservation stack;
    double sum = 0.0;
    for (const DieObservation& die : obs.dies) {
      stack.total_sites += die.total_sites;
      if (die.blind()) continue;
      stack.credible_sites += die.credible_sites;
      sum += die.mean_sensed.value() * static_cast<double>(die.credible_sites);
      if (die.max_sensed > stack.max_sensed) stack.max_sensed = die.max_sensed;
    }
    if (!stack.blind()) {
      stack.mean_sensed =
          Celsius{sum / static_cast<double>(stack.credible_sites)};
    }
    StackObservation wide = obs;
    for (DieObservation& die : wide.dies) {
      const std::size_t index = die.die;
      die = stack;
      die.die = index;
    }
    return inner_->decide(wide);
  }

  [[nodiscard]] Actuation safe_actuation() const override {
    return inner_->safe_actuation();
  }

  void reset() override { inner_->reset(); }

 private:
  std::unique_ptr<Policy> inner_;
  std::string name_;
};

}  // namespace

const char* to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kStaticWorstCase: return "static";
    case PolicyKind::kDvfsLadder: return "dvfs";
    case PolicyKind::kReactiveGating: return "gating";
    case PolicyKind::kMigration: return "migration";
  }
  return "unknown";
}

bool parse_policy_kind(std::string_view text, PolicyKind* out) {
  if (text == "static") { *out = PolicyKind::kStaticWorstCase; return true; }
  if (text == "dvfs") { *out = PolicyKind::kDvfsLadder; return true; }
  if (text == "gating") { *out = PolicyKind::kReactiveGating; return true; }
  if (text == "migration") { *out = PolicyKind::kMigration; return true; }
  return false;
}

std::unique_ptr<Policy> make_policy(PolicyKind kind,
                                    const PolicyConfig& config,
                                    std::size_t die_count) {
  if (die_count == 0) {
    throw std::invalid_argument{"make_policy: zero dies"};
  }
  switch (kind) {
    case PolicyKind::kStaticWorstCase:
      return std::make_unique<StaticWorstCasePolicy>(config, die_count);
    case PolicyKind::kDvfsLadder:
      return std::make_unique<DvfsLadderPolicy>(config, die_count);
    case PolicyKind::kReactiveGating:
      return std::make_unique<ReactiveGatingPolicy>(config, die_count);
    case PolicyKind::kMigration:
      return std::make_unique<MigrationPolicy>(config, die_count);
  }
  throw std::invalid_argument{"make_policy: unknown kind"};
}

std::unique_ptr<Policy> stack_wide(std::unique_ptr<Policy> inner) {
  return std::make_unique<StackWidePolicy>(std::move(inner));
}

}  // namespace tsvpt::control
