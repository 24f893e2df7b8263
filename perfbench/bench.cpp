#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/metrics.hpp"

namespace perfbench {

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void put_map(std::ostringstream& os, const char* key,
             const std::map<std::string, double>& values) {
  os << ", " << quoted(key) << ": {";
  bool first = true;
  for (const auto& [name, value] : values) {
    os << (first ? "" : ", ") << quoted(name) << ": " << number(value);
    first = false;
  }
  os << "}";
}

}  // namespace

std::map<std::string, Tracer::LayerTime> Tracer::layer_times() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_s[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    }
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double total =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
    LayerTime& layer = out[spans_[i].name];
    layer.count += 1;
    layer.total_s += total;
    layer.self_s += total - child_s[i];
  }
  return out;
}

double total_self_s(const LayerTimes& layers, const std::string& name) {
  const auto it = layers.find(name);
  return it == layers.end() ? 0.0 : it->second.self_s;
}

double mean_self_s(const LayerTimes& layers, const std::string& name) {
  const auto it = layers.find(name);
  if (it == layers.end() || it->second.count == 0) return 0.0;
  return it->second.self_s / static_cast<double>(it->second.count);
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-9);
    }
  }
  return out;
}

void Tracer::write_chrome(const std::string& path,
                          std::uint64_t origin_ns) const {
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": " << quoted(s.name)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << number(static_cast<double>(s.start_ns - origin_ns) * 1e-3)
        << ", \"dur\": "
        << number(static_cast<double>(s.end_ns - s.start_ns) * 1e-3)
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << "}}";
  }
  out << "\n]}\n";
}

std::string to_json(const Report& report, const Phases& phases,
                    std::uint64_t start_ns, std::uint64_t first_timed_ns) {
  std::ostringstream os;
  os << "{\"workload\": " << quoted(report.workload)
     << ", \"seed\": " << report.seed << ", \"role\": " << quoted(report.role)
     << ", \"trace\": " << (report.trace ? "true" : "false")
     << ", \"ok\": " << (report.ok() ? "true" : "false")
     << ", \"attempted\": " << report.attempted
     << ", \"failed\": " << report.failed << ", \"start_ns\": " << start_ns
     << ", \"first_timed_ns\": " << first_timed_ns << ", \"checks\": {";
  bool first = true;
  for (const auto& [name, pass] : report.checks) {
    os << (first ? "" : ", ") << quoted(name) << ": "
       << (pass ? "true" : "false");
    first = false;
  }
  os << "}, \"phases\": {";
  first = true;
  for (const auto& [name, seconds] : phases.seconds()) {
    os << (first ? "" : ", ") << quoted(name) << ": " << number(seconds);
    first = false;
  }
  os << "}, \"digests\": {";
  first = true;
  for (const auto& [name, digest] : report.digests) {
    os << (first ? "" : ", ") << quoted(name) << ": " << quoted(digest);
    first = false;
  }
  os << "}";
  put_map(os, "e2e", report.e2e);
  put_map(os, "named", report.named);
  put_map(os, "layers", report.layers);
  put_map(os, "reconcile", report.reconcile);
  put_map(os, "obs", report.obs);
  os << "}";
  return os.str();
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib * 1024.0 / 1e6;
    }
  }
  return 0.0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

std::string hex32(std::uint32_t value) {
  char buf[12];
  std::snprintf(buf, sizeof buf, "%08x", value);
  return buf;
}

void copy_obs(const std::vector<std::string>& prefixes,
              std::map<std::string, double>& out) {
  const tsvpt::obs::Snapshot snapshot =
      tsvpt::obs::Registry::instance().snapshot();
  const auto wanted = [&](const std::string& name) {
    return std::any_of(prefixes.begin(), prefixes.end(),
                       [&](const std::string& p) {
                         return name.rfind(p, 0) == 0;
                       });
  };
  for (const auto& h : snapshot.histograms) {
    if (!wanted(h.name) || h.count == 0) continue;
    const std::string key = h.key();
    out[key + ".count"] = static_cast<double>(h.count);
    out[key + ".sum_s"] = h.sum;
    out[key + ".p50_s"] = h.p50;
    out[key + ".p99_s"] = h.p99;
  }
  for (const auto& [name, value] : snapshot.counters) {
    if (wanted(name)) out[name] = static_cast<double>(value);
  }
}

}  // namespace perfbench
