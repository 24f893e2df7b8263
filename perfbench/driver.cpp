// One workload process of the benchmark: parses the launcher's arguments,
// runs the workload, prints its record as one JSON line and exits.  The
// launcher (run.py) spawns it several times per benchmark run and reduces
// the records to the benchmark's metrics.
//
//   perfbench_driver --workload fleet_live|ingest_wide|historian
//                    --seed N [--trace 0|1] [--role measure|reference]
//                    [--spawn-ns T] [--workers K] [--shrink] [--corrupt]
//                    [--work-dir DIR]
//
// Exit code 0 means a record was printed (its "ok" field carries the output
// checks); anything else is a usage or runtime error.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <malloc.h>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Options;

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument{arg + " needs a value"};
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
    } else if (arg == "--trace") {
      options.trace = value() != "0";
    } else if (arg == "--role") {
      options.role = value();
    } else if (arg == "--spawn-ns") {
      options.spawn_ns = std::stoull(value());
    } else if (arg == "--workers") {
      options.workers = std::stoul(value());
    } else if (arg == "--shrink") {
      options.shrink = true;
    } else if (arg == "--corrupt") {
      options.corrupt = true;
    } else if (arg == "--work-dir") {
      options.work_dir = value();
    } else {
      throw std::invalid_argument{"unknown argument " + arg};
    }
  }
  return options.role == "measure" || options.role == "reference";
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t main_ns = perfbench::now_ns();
  perfbench::Phases phases;
  phases.begin("setup");
  try {
    Options options;
    if (!parse(argc, argv, options)) {
      std::fprintf(stderr, "perfbench_driver: bad --role\n");
      return 2;
    }
    const std::uint64_t start_ns =
        options.spawn_ns != 0 && options.spawn_ns <= main_ns ? options.spawn_ns
                                                             : main_ns;
    std::filesystem::create_directories(options.work_dir);

    perfbench::Tracer tracer{options.trace};
    perfbench::Report report;
    report.workload = options.workload;
    report.seed = options.seed;
    report.role = options.role;
    report.trace = options.trace;
    std::uint64_t first_timed_ns = 0;
    if (options.workload == "fleet_live") {
      perfbench::fleet_live(options, phases, tracer, report, first_timed_ns);
    } else if (options.workload == "ingest_wide") {
      perfbench::ingest_wide(options, phases, tracer, report, first_timed_ns);
    } else if (options.workload == "historian") {
      perfbench::historian(options, phases, tracer, report, first_timed_ns);
    } else {
      std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n",
                   options.workload.c_str());
      return 2;
    }
    // Hand freed heap back to the kernel inside the last phase, so the
    // teardown of a large fleet is attributed rather than left to exit().
    malloc_trim(0);
    phases.end();
    if (first_timed_ns == 0) first_timed_ns = start_ns;
    report.e2e["setup_s"] =
        static_cast<double>(first_timed_ns - start_ns) * 1e-9;
    report.e2e["peak_rss_mb"] = perfbench::peak_rss_mb();
    if (!report.ok()) report.failed = report.attempted;
    if (tracer.enabled()) {
      tracer.write_chrome(options.work_dir + "/trace-" + options.workload +
                              "-" + std::to_string(options.seed) + ".json",
                          start_ns);
    }
    std::cout << perfbench::to_json(report, phases, start_ns, first_timed_ns)
              << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
