// historian: the store used two ways on one seeded corpus of 16-site
// frames.  Write: StoreWriter::append with the default block and fsync
// options, then close.  Read: StoreReader open, a seeded mix of
// single-stack-history and fleet-wide time-window queries from one client,
// then a full replay into a default Aggregator.  No sockets, no simulation.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <unistd.h>
#include <vector>

#include "bench.hpp"
#include "core/fault_detector.hpp"
#include "ingest/fleet_view.hpp"
#include "obs/metrics.hpp"
#include "ptsim/rng.hpp"
#include "store/store.hpp"
#include "telemetry/aggregator.hpp"
#include "telemetry/frame.hpp"

namespace perfbench {

namespace {

using namespace tsvpt;

constexpr std::size_t kStacks = 64;
constexpr std::size_t kScans = 400;
constexpr std::size_t kShrunkStacks = 8;
constexpr std::size_t kShrunkScans = 40;
constexpr std::size_t kDies = 4;
constexpr std::size_t kPerDie = 4;  // 2x2 sites per die
constexpr std::size_t kSites = kDies * kPerDie;
constexpr double kPeriod = 1e-3;
/// Query mix: this many of every twenty queries ask for one stack's whole
/// history; the rest ask for every stack inside a window of
/// kWindowShare of the recorded time span.
constexpr std::size_t kQueries = 100;
constexpr std::size_t kStackQueriesPerTwenty = 3;
constexpr double kWindowShare = 0.05;
/// The write side appends the whole corpus this many times, each into a
/// fresh store, so the append rate rests on more than a blink of work.  The
/// reads use the last store.
constexpr std::size_t kWriteRounds = 6;

struct Corpus {
  std::size_t stacks = 0;
  std::size_t scans = 0;
  /// Scan-major, as a fleet produces them.
  std::vector<telemetry::Frame> frames;
  [[nodiscard]] std::size_t sites() const { return frames.size() * kSites; }
};

Corpus make_corpus(std::uint64_t seed, std::size_t stacks,
                   std::size_t scans) {
  Corpus corpus;
  corpus.stacks = stacks;
  corpus.scans = scans;
  corpus.frames.reserve(stacks * scans);
  struct StackState {
    double base = 0.0;
    double amplitude = 0.0;
    double phase = 0.0;
  };
  std::vector<StackState> state(stacks);
  Rng rng{seed};
  for (StackState& s : state) {
    s.base = rng.uniform(40.0, 60.0);
    s.amplitude = rng.uniform(1.0, 6.0);
    s.phase = rng.uniform(0.0, 6.283);
  }
  for (std::size_t scan = 0; scan < scans; ++scan) {
    for (std::size_t stack = 0; stack < stacks; ++stack) {
      const StackState& s = state[stack];
      telemetry::Frame frame;
      frame.stack_id = static_cast<std::uint32_t>(stack);
      frame.sequence = scan;
      frame.sim_time = Second{kPeriod * static_cast<double>(scan)};
      frame.capture_ns = 1'000'000'000ull + scan * 1'000'000ull + stack;
      frame.readings.resize(kSites);
      const double wave =
          s.amplitude * std::sin(s.phase + 0.02 * static_cast<double>(scan));
      for (std::size_t i = 0; i < kSites; ++i) {
        auto& r = frame.readings[i];
        r.site_index = i;
        r.die = i / kPerDie;
        const std::size_t cell = i % kPerDie;
        r.location = {(static_cast<double>(cell / 2) + 0.5) * 2.5e-3,
                      (static_cast<double>(cell % 2) + 0.5) * 2.5e-3};
        const double truth = s.base + wave - 1.5 * static_cast<double>(r.die) +
                             0.3 * static_cast<double>(cell);
        r.truth = Celsius{truth};
        r.sensed = Celsius{truth + rng.uniform(-1.2, 1.2)};
        r.energy = Joule{rng.uniform(240e-12, 260e-12)};
      }
      corpus.frames.push_back(std::move(frame));
    }
  }
  return corpus;
}

struct QuerySpec {
  bool stack_history = false;
  store::StoreReader::Query query;
  std::size_t expected = 0;
};

std::vector<QuerySpec> make_queries(std::uint64_t seed, const Corpus& corpus) {
  Rng rng{derive_seed(seed, 7)};
  const double span = kPeriod * static_cast<double>(corpus.scans - 1);
  std::vector<QuerySpec> queries;
  for (std::size_t i = 0; i < kQueries; ++i) {
    QuerySpec q;
    q.stack_history = i % 20 < kStackQueriesPerTwenty;
    if (q.stack_history) {
      q.query.stack_ids = {static_cast<std::uint32_t>(
          rng.uniform(0.0, static_cast<double>(corpus.stacks)))};
      q.query.stack_ids[0] = std::min<std::uint32_t>(
          q.query.stack_ids[0], static_cast<std::uint32_t>(corpus.stacks - 1));
    } else {
      q.query.t_min = rng.uniform(0.0, span * (1.0 - kWindowShare));
      q.query.t_max = q.query.t_min + span * kWindowShare;
    }
    for (const telemetry::Frame& f : corpus.frames) {
      const double t = f.sim_time.value();
      if (t >= q.query.t_min && t <= q.query.t_max &&
          q.query.wants_stack(f.stack_id)) {
        ++q.expected;
      }
    }
    queries.push_back(std::move(q));
  }
  // Seeded order, so the two kinds interleave differently per seed.
  for (std::size_t i = queries.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform(0.0, static_cast<double>(i)));
    std::swap(queries[i - 1], queries[std::min(j, i - 1)]);
  }
  return queries;
}

ingest::FleetView view_of(const telemetry::Aggregator& aggregator,
                          const std::vector<telemetry::Alert>& alerts) {
  ingest::FleetView view;
  view.add_shard(aggregator.summary(), alerts);
  view.finalize();
  return view;
}

/// Blocks whose header admits a match for `query` (what an index could
/// narrow the scan to).
std::size_t blocks_with_match(const store::StoreReader& reader,
                              const store::StoreReader::Query& query) {
  std::size_t hits = 0;
  for (const store::SegmentIndex& segment : reader.segments()) {
    for (const store::BlockIndexEntry& block : segment.blocks) {
      if (!block.header.overlaps(query.t_min, query.t_max)) continue;
      bool stack_hit = query.stack_ids.empty();
      for (const std::uint32_t id : query.stack_ids) {
        stack_hit = stack_hit || block.header.contains_stack(id);
      }
      if (stack_hit) ++hits;
    }
  }
  return hits;
}

/// Traced run only: the telemetry and core layers the replay runs, timed
/// on a slice of the corpus.
void probe_layers(const Corpus& corpus, Tracer& tracer, Report& report) {
  const std::size_t probe = std::min<std::size_t>(corpus.frames.size(), 4000);
  const telemetry::Aggregator::Config agg_cfg;
  telemetry::Aggregator::Config nospatial_cfg;
  nospatial_cfg.spatial_check = false;
  telemetry::Aggregator aggregator{agg_cfg};
  telemetry::Aggregator aggregator_nospatial{nospatial_cfg};
  const core::FaultDetector detector{agg_cfg.fault};
  for (std::size_t j = 0; j < probe; ++j) {
    const telemetry::Frame& frame = corpus.frames[j];
    std::vector<std::uint8_t> wire;
    {
      const Tracer::Scope span{tracer, "telemetry.encode", j};
      wire = telemetry::encode(frame);
    }
    {
      const Tracer::Scope span{tracer, "telemetry.decode", j};
      (void)telemetry::decode(wire);
    }
    {
      const Tracer::Scope span{tracer, "core.fault_check", j};
      (void)detector.analyze(frame.readings);
    }
    {
      const Tracer::Scope span{tracer, "telemetry.agg_ingest", j};
      aggregator.ingest(wire);
    }
    {
      const Tracer::Scope span{tracer, "telemetry.agg_ingest_nospatial", j};
      aggregator_nospatial.ingest(wire);
    }
  }
  const LayerTimes layers = tracer.layer_times();
  const auto per_site = [&](const char* name) {
    return mean_self_s(layers, name) / kSites * 1e9;
  };
  auto& out = report.layers;
  out["core.fault_check_ns_per_site"] = per_site("core.fault_check");
  out["telemetry.encode_ns_per_site"] = per_site("telemetry.encode");
  out["telemetry.decode_ns_per_site"] = per_site("telemetry.decode");
  out["telemetry.agg_ingest_ns_per_site"] = per_site("telemetry.agg_ingest");
  out["telemetry.agg_ingest_nospatial_ns_per_site"] =
      per_site("telemetry.agg_ingest_nospatial");
}

void flip_byte_mid_segment(const std::string& dir) {
  const std::vector<std::string> files = store::list_segment_files(dir);
  if (files.empty()) return;
  std::fstream file(files.front(),
                    std::ios::in | std::ios::out | std::ios::binary);
  file.seekg(0, std::ios::end);
  const std::streamoff middle = file.tellg() / 2;
  file.seekg(middle);
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  file.seekp(middle);
  file.write(&byte, 1);
}

/// Seconds the store has spent in fsync so far (its own histogram).
double fsync_seconds() {
  for (const auto& h : obs::Registry::instance().snapshot().histograms) {
    if (h.name == "tsvpt_store_fsync_seconds") return h.sum;
  }
  return 0.0;
}

}  // namespace

void historian(const Options& options, Phases& phases, Tracer& tracer,
               Report& report, std::uint64_t& first_timed_ns) {
  const Corpus corpus =
      make_corpus(options.seed, options.shrink ? kShrunkStacks : kStacks,
                  options.shrink ? kShrunkScans : kScans);
  const std::size_t frames = corpus.frames.size();
  const double sites = static_cast<double>(corpus.sites());

  if (options.role == "reference") {
    // Direct ingest of the corpus: what the replay must reproduce.
    phases.begin("verify");
    std::vector<telemetry::Alert> alerts;
    telemetry::Aggregator aggregator{
        telemetry::Aggregator::Config{},
        [&alerts](const telemetry::Alert& alert) { alerts.push_back(alert); }};
    for (const telemetry::Frame& frame : corpus.frames) {
      aggregator.ingest(telemetry::encode(frame));
    }
    report.digests["fleet_view"] = hex32(view_of(aggregator, alerts).digest());
    report.attempted = frames;
    report.check("reference", true);
    phases.begin("exit");
    return;
  }

  const std::vector<QuerySpec> queries = make_queries(options.seed, corpus);
  const std::string base = options.work_dir + "/historian-" +
                           std::to_string(::getpid());
  std::filesystem::remove_all(base);
  const std::string dir = base + "/store" + std::to_string(kWriteRounds - 1);
  const obs::Counter blocks_decoded =
      obs::counter("tsvpt_store_blocks_decoded_total");
  const obs::Counter fsyncs = obs::counter("tsvpt_store_fsyncs_total");

  // Write.
  const double fsync_s_before = fsync_seconds();
  phases.begin("run");
  first_timed_ns = now_ns();
  const std::uint64_t fsyncs_before = fsyncs.value();
  for (std::size_t round = 0; round < kWriteRounds; ++round) {
    store::StoreWriter writer{base + "/store" + std::to_string(round)};
    for (std::size_t j = 0; j < frames; ++j) {
      const Tracer::Scope span{tracer, "store.append", j};
      writer.append(corpus.frames[j]);
    }
    const Tracer::Scope span{tracer, "store.close"};
    writer.close();
  }
  const double append_s =
      static_cast<double>(now_ns() - first_timed_ns) * 1e-9;
  const std::uint64_t fsync_count = fsyncs.value() - fsyncs_before;
  const double fsync_s = fsync_seconds() - fsync_s_before;
  if (options.corrupt) flip_byte_mid_segment(dir);

  // Read: open, the query mix, replay.
  std::unique_ptr<store::StoreReader> reader;
  {
    const Tracer::Scope span{tracer, "store.open"};
    reader = std::make_unique<store::StoreReader>(dir);
  }
  std::vector<double> latency_ms;
  std::size_t answered_right = 0;
  double decoded[2] = {0.0, 0.0};
  double matched[2] = {0.0, 0.0};
  double queried[2] = {0.0, 0.0};
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const QuerySpec& q = queries[i];
    const std::uint64_t decoded_before = blocks_decoded.value();
    const std::uint64_t t = now_ns();
    std::size_t got = 0;
    {
      const Tracer::Scope span{tracer, q.stack_history ? "store.query_stack"
                                                       : "store.query_window",
                               i};
      got = reader->query(q.query).size();
    }
    latency_ms.push_back(static_cast<double>(now_ns() - t) * 1e-6);
    if (got == q.expected) ++answered_right;
    const int kind = q.stack_history ? 0 : 1;
    queried[kind] += 1.0;
    decoded[kind] +=
        static_cast<double>(blocks_decoded.value() - decoded_before);
    matched[kind] += static_cast<double>(blocks_with_match(*reader, q.query));
  }
  std::vector<telemetry::Alert> alerts;
  telemetry::Aggregator aggregator{
      telemetry::Aggregator::Config{},
      [&alerts](const telemetry::Alert& alert) { alerts.push_back(alert); }};
  store::StoreReader::ReplayResult replayed;
  const std::uint64_t replay_t0 = now_ns();
  {
    const Tracer::Scope span{tracer, "store.replay"};
    replayed = reader->replay(store::StoreReader::Query{}, aggregator);
  }
  const double replay_s = static_cast<double>(now_ns() - replay_t0) * 1e-9;

  phases.begin("verify");
  const ingest::FleetView view = view_of(aggregator, alerts);
  report.digests["fleet_view"] = hex32(view.digest());
  // Full scan: reads back every reading's energy (and times the cursor).
  double energy_j = 0.0;
  std::uint64_t readings = 0;
  std::uint64_t scanned_frames = 0;
  std::uint64_t scan_corrupt = 0;
  const std::uint64_t scan_t0 = now_ns();
  {
    const Tracer::Scope span{tracer, "store.scan"};
    store::StoreReader::Cursor cursor = reader->scan();
    telemetry::Frame frame;
    while (cursor.next(frame)) {
      for (const auto& r : frame.readings) energy_j += r.energy.value();
      readings += frame.readings.size();
      ++scanned_frames;
    }
    scan_corrupt = cursor.corrupt_blocks();
  }
  const double scan_s = static_cast<double>(now_ns() - scan_t0) * 1e-9;
  const store::StoreStats stats = reader->stats();
  const std::uint64_t lost =
      (frames - std::min<std::uint64_t>(frames, replayed.frames_replayed)) +
      view.missed() + view.decode_errors();
  report.attempted = frames * kWriteRounds + queries.size();
  report.failed = lost + (queries.size() - answered_right);
  report.check("store_frames", stats.frames == frames);
  report.check("no_corrupt_blocks",
               replayed.corrupt_blocks == 0 && scan_corrupt == 0 &&
                   stats.corrupt_blocks == 0);
  report.check("replay_complete", replayed.frames_replayed == frames);
  report.check("scan_complete", scanned_frames == frames);
  report.check("queries_answered", answered_right == queries.size());
  report.check("no_missed_frames", view.missed() == 0);

  auto& e2e = report.e2e;
  e2e["sites_per_s"] = sites * kWriteRounds / append_s;
  e2e["p50_ms"] = quantile(latency_ms, 0.50);
  e2e["tail_ms"] = quantile(latency_ms, 0.90);
  e2e["bytes_per_site"] = static_cast<double>(stats.bytes_on_disk) / sites;
  const ErrorBounds accuracy = error_bounds(aggregator.summary().stacks);
  e2e["sensor_error_3sigma_c"] = accuracy.three_sigma_c;
  e2e["energy_pj_per_conversion"] =
      readings == 0 ? 0.0 : energy_j / static_cast<double>(readings) * 1e12;

  auto& named = report.named;
  named["sensor_error_max_c"] = accuracy.max_abs_c;
  named["sensor_error_3sigma_c"] = accuracy.three_sigma_c;
  named["store_append_sites_per_s"] = e2e["sites_per_s"];
  // The disk's share of the write rate: fsync time moved 31-140 ms per
  // round between consecutive processes on a shared virtio disk.
  named["store_fsync_ms_per_round"] =
      fsync_s * 1e3 / static_cast<double>(kWriteRounds);
  named["store_query_p50_ms"] = e2e["p50_ms"];
  named["store_query_p90_ms"] = e2e["tail_ms"];
  named["store_replay_sites_per_s"] = sites / replay_s;
  named["store_disk_bytes_per_site"] = e2e["bytes_per_site"];
  named["frames"] = static_cast<double>(frames);
  named["queries"] = static_cast<double>(queries.size());
  named["blocks"] = static_cast<double>(stats.blocks);
  named["segments"] = static_cast<double>(stats.segments);

  if (tracer.enabled()) {
    const LayerTimes lt = tracer.layer_times();
    auto& layers = report.layers;
    layers["store.append_ns_per_frame"] = mean_self_s(lt, "store.append") * 1e9;
    layers["store.close_ms"] = mean_self_s(lt, "store.close") * 1e3;
    layers["store.fsyncs"] =
        static_cast<double>(fsync_count) / static_cast<double>(kWriteRounds);
    layers["store.open_ms"] = total_self_s(lt, "store.open") * 1e3;
    layers["store.scan_ns_per_site"] = scan_s / sites * 1e9;
    layers["store.blocks_decoded_per_hit.stack"] =
        matched[0] == 0.0 ? 0.0 : decoded[0] / matched[0];
    layers["store.blocks_decoded_per_hit.window"] =
        matched[1] == 0.0 ? 0.0 : decoded[1] / matched[1];
    layers["store.blocks_decoded_per_query.stack"] = decoded[0] / queried[0];
    layers["store.blocks_decoded_per_query.window"] = decoded[1] / queried[1];
    layers["store.compression_ratio"] = stats.compression_ratio();
    layers["telemetry.frames_lost"] = static_cast<double>(lost);
    copy_obs({"tsvpt_store_"}, report.obs);
    // Per write round, like store.fsyncs.
    layers["store.fsync_ms_total"] =
        report.obs["tsvpt_store_fsync_seconds.sum_s"] * 1e3 /
        static_cast<double>(kWriteRounds);
    report.reconcile["measured_s"] = replay_s;
    report.reconcile["append_measured_s"] = append_s;
    // Typical append times every append, plus the closes: what the write
    // side would cost without its slow appends (block seals and fsyncs).
    const std::vector<double> appends = tracer.durations("store.append");
    report.reconcile["append_predicted_s"] =
        quantile(appends, 0.5) * static_cast<double>(appends.size()) +
        total_self_s(lt, "store.close");
  }

  phases.begin("exit");
  reader.reset();
  std::filesystem::remove_all(base);

  if (tracer.enabled()) {
    phases.begin("layers");
    probe_layers(corpus, tracer, report);
    // Replay is one thread: each frame is decoded from its block, encoded
    // again and ingested (decode + fold + spatial check).
    const auto& layers = report.layers;
    report.reconcile["predicted_s"] =
        sites *
        (layers.at("store.scan_ns_per_site") +
         layers.at("telemetry.encode_ns_per_site") +
         layers.at("telemetry.agg_ingest_ns_per_site")) *
        1e-9;
  }
}

}  // namespace perfbench
