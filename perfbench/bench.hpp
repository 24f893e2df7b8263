// Shared plumbing of the benchmark driver: options, the process phase
// clock, the in-memory span recorder of the traced run, and the JSON
// record one workload process prints on exit.
//
// Everything here runs on the driver's main thread.  Spans are taken only
// around public calls the driver itself makes; calls that happen inside
// sampler or server threads are timed by re-issuing them from the main
// thread on the workload's own inputs (see each workload's layer probe).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ptsim/stats.hpp"

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  /// "measure" runs the workload; "reference" computes the expected
  /// outputs the measuring processes are checked against.
  std::string role = "measure";
  /// steady_clock stamp taken by the launcher just before spawning this
  /// process (0 = unknown: the phase clock then starts at main()).
  std::uint64_t spawn_ns = 0;
  /// Sampler workers (fleet_live only; the reference uses 1).
  std::size_t workers = 2;
  /// Shrunk inputs for the self-check.
  bool shrink = false;
  /// Corrupt one frame or block on purpose; the checks must then fail.
  bool corrupt = false;
  /// Scratch directory inside the checkout (store files, span dumps).
  std::string work_dir = ".bench_work";
};

/// Named, back-to-back wall-clock phases of the process.  The launcher adds
/// what no phase covers (exec, loader, teardown after the record is
/// printed) as process.unaccounted_ratio.
class Phases {
 public:
  void begin(const std::string& name) {
    const std::uint64_t t = now_ns();
    close_at(t);
    open_ = name;
    open_since_ = t;
  }
  void end() { close_at(now_ns()); }
  [[nodiscard]] const std::vector<std::pair<std::string, double>>& seconds()
      const {
    return seconds_;
  }
  [[nodiscard]] double get(const std::string& name) const {
    double total = 0.0;
    for (const auto& [n, s] : seconds_) {
      if (n == name) total += s;
    }
    return total;
  }

 private:
  void close_at(std::uint64_t t) {
    if (open_.empty()) return;
    seconds_.emplace_back(open_, static_cast<double>(t - open_since_) * 1e-9);
    open_.clear();
  }
  std::string open_;
  std::uint64_t open_since_ = 0;
  std::vector<std::pair<std::string, double>> seconds_;
};

/// Benchmark-side spans: name, start, end, parent and a per-frame or
/// per-query id.  Disabled, a scope costs one branch and no clock read.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint64_t id = 0;
  };

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t id = 0)
        : tracer_(tracer.enabled_ ? &tracer : nullptr) {
      if (tracer_ != nullptr) index_ = tracer_->open(name, id);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  struct LayerTime {
    std::uint64_t count = 0;
    double total_s = 0.0;
    /// Duration minus the part covered by child spans.
    double self_s = 0.0;
  };
  /// Per span name: count, total and self time.
  [[nodiscard]] std::map<std::string, LayerTime> layer_times() const;
  /// Durations of every span with this name, in seconds.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Chrome trace-event JSON of every span (written at exit).
  void write_chrome(const std::string& path, std::uint64_t origin_ns) const;

 private:
  std::int32_t open(const char* name, std::uint64_t id) {
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.id = id;
    span.start_ns = now_ns();
    spans_.push_back(span);
    const auto index = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(index);
    return index;
  }
  void close(std::int32_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
  }

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

using LayerTimes = std::map<std::string, Tracer::LayerTime>;
/// Self time of the spans called `name`: summed, and per span (0 when
/// there is none).
[[nodiscard]] double total_self_s(const LayerTimes& layers,
                                  const std::string& name);
[[nodiscard]] double mean_self_s(const LayerTimes& layers,
                                 const std::string& name);

/// What one workload process reports.  `e2e` holds the end-to-end metrics
/// under the benchmark's shared names; `named` repeats them (and the
/// workload's extra figures) under the names the workload's definition
/// uses; `layers` is filled by the traced run only.
struct Report {
  std::string workload;
  std::uint64_t seed = 0;
  std::string role;
  bool trace = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, bool>> checks;
  std::map<std::string, double> e2e;
  std::map<std::string, double> named;
  std::map<std::string, double> layers;
  std::map<std::string, std::string> digests;
  /// Seconds the traced run attributes to the blocking path, next to the
  /// measured time it should predict.
  std::map<std::string, double> reconcile;
  std::map<std::string, double> obs;

  void check(const std::string& name, bool ok) { checks.emplace_back(name, ok); }
  [[nodiscard]] bool ok() const {
    for (const auto& [name, pass] : checks) {
      if (!pass) return false;
    }
    return true;
  }
};

[[nodiscard]] std::string to_json(const Report& report, const Phases& phases,
                                  std::uint64_t start_ns,
                                  std::uint64_t first_timed_ns);

/// Sensor accuracy over every die of a stacks map (an Aggregator summary's
/// or a FleetView's): the largest |sensed - truth| seen, and the 3-sigma
/// bound |mean| + 3 sd of the error pooled over every reading.  The first
/// is an extreme value that moves with every calibration and noise draw;
/// the second is the steady figure the benchmark tracks.
struct ErrorBounds {
  double max_abs_c = 0.0;
  double three_sigma_c = 0.0;
  double mean_c = 0.0;
  double sd_c = 0.0;
};
template <typename StackMap>
[[nodiscard]] ErrorBounds error_bounds(const StackMap& stacks) {
  ErrorBounds out;
  tsvpt::RunningStats pooled;
  for (const auto& [id, stack] : stacks) {
    for (const auto& [die, stats] : stack.dies) {
      if (stats.error_c.empty()) continue;
      out.max_abs_c = std::max(out.max_abs_c, stats.error_c.max_abs());
      pooled.merge(stats.error_c);
    }
  }
  if (!pooled.empty()) {
    out.mean_c = pooled.mean();
    out.sd_c = pooled.stddev();
    out.three_sigma_c = std::abs(out.mean_c) + 3.0 * out.sd_c;
  }
  return out;
}

/// VmHWM of this process in MB (10^6 bytes).
[[nodiscard]] double peak_rss_mb();

/// Nearest-rank quantile of `values` (sorted copy), q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> values, double q);

[[nodiscard]] std::string hex32(std::uint32_t value);

/// Copies the histograms whose names start with one of `prefixes` out of
/// the program's metrics registry (count, sum, p50, p99) — the program's own
/// view, kept next to the benchmark's spans as a cross-check.
void copy_obs(const std::vector<std::string>& prefixes,
              std::map<std::string, double>& out);

/// Workloads.  Each fills `report`, drives `phases` through setup, run,
/// drain, verify and exit, and stamps `first_timed_ns` at its first timed
/// call.
void fleet_live(const Options& options, Phases& phases, Tracer& tracer,
                Report& report, std::uint64_t& first_timed_ns);
void ingest_wide(const Options& options, Phases& phases, Tracer& tracer,
                 Report& report, std::uint64_t& first_timed_ns);
void historian(const Options& options, Phases& phases, Tracer& tracer,
               Report& report, std::uint64_t& first_timed_ns);

}  // namespace perfbench
