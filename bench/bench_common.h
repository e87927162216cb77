// Shared plumbing for the figure-reproduction bench binaries.
//
// Every binary prints, on stdout:
//   * a header describing the figure being regenerated,
//   * one CDF series per experimental condition — the same series the
//     paper plots, as "<label> p=<cum%> value=<ticks>" rows,
//   * a "verdict" line per condition with the Table 1 counters (the
//     paper's "we have not observed a single hole" claim is re-checked on
//     every bench run),
//   * a "summary" line per condition with mean/percentile delays.
//
// With --metrics-out=<path>, every condition additionally appends JSONL
// to <path>: one "round" line per sampled protocol round (ball size,
// fanout, buffer occupancy) and one "snapshot" line with the run's final
// metric registry (histograms + aggregate counters). See DESIGN.md
// "Observability" for the schema.
//
// Default sizes are scaled to a small single-core machine; --paper-scale
// runs the full published sweep (see EXPERIMENTS.md for the mapping).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/exporters.h"
#include "obs/flight_recorder.h"
#include "workload/experiment.h"
#include "workload/sweep.h"

namespace epto::bench {

struct BenchArgs {
  bool paperScale = false;
  std::uint64_t seed = 42;
  std::size_t cdfSteps = 20;
  std::size_t jobs = 1;    ///< worker threads for independent conditions.
  std::string metricsOut;  ///< empty = no JSONL metrics output.
  std::string benchJson;   ///< empty = no perf-trajectory JSONL output.
  std::string traceOut;    ///< empty = no protocol-trace JSONL output.
  std::string binaryName;  ///< basename(argv[0]), labels the perf record.
  /// Open lazily on first runSeries() so binaries that only parse args
  /// (e.g. --help handling in tests) never create the file.
  std::shared_ptr<obs::JsonlWriter> metricsWriter;
  std::shared_ptr<obs::JsonlTraceSink> traceSink;
};

[[noreturn]] inline void printUsageAndExit(const char* argv0, int code) {
  std::FILE* out = code == 0 ? stdout : stderr;
  std::fprintf(out,
               "usage: %s [options]\n"
               "  --paper-scale        run the full published sweep instead of the\n"
               "                       scaled-down defaults\n"
               "  --seed=<n>           master RNG seed (default 42)\n"
               "  --cdf-steps=<n>      rows per printed CDF series (default 20)\n"
               "  --jobs=<n>           run independent conditions on up to n worker\n"
               "                       threads (default 1; output is identical for\n"
               "                       every n — see EXPERIMENTS.md)\n"
               "  --metrics-out=<path> append per-round samples and the final metric\n"
               "                       snapshot as JSONL to <path>\n"
               "  --bench-json=<path>  append one epto.bench.figs/1 JSONL record\n"
               "                       (wall clock, jobs, per-condition counters)\n"
               "  --trace-out=<path>   stream protocol trace events as JSONL to <path>,\n"
               "                       segmented per condition by label lines (forces\n"
               "                       --jobs=1; needs an EPTO_TRACE=ON build — see\n"
               "                       tools/epto_trace.py for the analyzer)\n"
               "  --help               print this message and exit\n",
               argv0);
  std::exit(code);
}

inline BenchArgs parseArgs(int argc, char** argv) {
  BenchArgs args;
  if (argc > 0) {
    const char* slash = std::strrchr(argv[0], '/');
    args.binaryName = slash != nullptr ? slash + 1 : argv[0];
  }
  const auto numeric = [&](const char* flag, const char* value) {
    char* end = nullptr;
    const std::uint64_t parsed = std::strtoull(value, &end, 10);
    if (*value == '\0' || end == nullptr || *end != '\0') {
      std::fprintf(stderr, "%s: %s expects a number, got \"%s\"\n", argv[0], flag, value);
      printUsageAndExit(argv[0], 2);
    }
    return parsed;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--paper-scale") == 0) {
      args.paperScale = true;
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      args.seed = numeric("--seed", argv[i] + 7);
    } else if (std::strncmp(argv[i], "--cdf-steps=", 12) == 0) {
      args.cdfSteps = numeric("--cdf-steps", argv[i] + 12);
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      args.jobs = numeric("--jobs", argv[i] + 7);
      if (args.jobs == 0) {
        std::fprintf(stderr, "%s: --jobs must be at least 1\n", argv[0]);
        printUsageAndExit(argv[0], 2);
      }
    } else if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      args.metricsOut = argv[i] + 14;
      if (args.metricsOut.empty()) {
        std::fprintf(stderr, "%s: --metrics-out requires a path\n", argv[0]);
        printUsageAndExit(argv[0], 2);
      }
    } else if (std::strncmp(argv[i], "--bench-json=", 13) == 0) {
      args.benchJson = argv[i] + 13;
      if (args.benchJson.empty()) {
        std::fprintf(stderr, "%s: --bench-json requires a path\n", argv[0]);
        printUsageAndExit(argv[0], 2);
      }
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      args.traceOut = argv[i] + 12;
      if (args.traceOut.empty()) {
        std::fprintf(stderr, "%s: --trace-out requires a path\n", argv[0]);
        printUsageAndExit(argv[0], 2);
      }
    } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      printUsageAndExit(argv[0], 0);
    } else {
      std::fprintf(stderr, "%s: unknown flag: %s\n", argv[0], argv[i]);
      printUsageAndExit(argv[0], 2);
    }
  }
  return args;
}

inline void printHeader(const std::string& figure, const std::string& what,
                        const BenchArgs& args) {
  std::printf("# %s — %s\n", figure.c_str(), what.c_str());
  std::printf("# scale=%s seed=%llu (values in simulator ticks; shapes, not absolute\n",
              args.paperScale ? "paper" : "default",
              static_cast<unsigned long long>(args.seed));
  std::printf("# numbers, are the reproduction target — see EXPERIMENTS.md)\n");
}

/// Append one condition's observability record to the JSONL file: the
/// sampled rounds, then the final registry snapshot tagged with the
/// condition label.
inline void writeMetricsJsonl(BenchArgs& args, const std::string& label,
                              const workload::ExperimentResult& result) {
  if (args.metricsOut.empty()) return;
  if (args.metricsWriter == nullptr) {
    args.metricsWriter = std::make_shared<obs::JsonlWriter>(args.metricsOut);
    if (!args.metricsWriter->ok()) {
      std::fprintf(stderr, "cannot open metrics output: %s\n", args.metricsOut.c_str());
      std::exit(2);
    }
  }
  auto& writer = *args.metricsWriter;
  for (const auto& sample : result.roundSamples) {
    std::string line = "{\"type\":\"round\",\"label\":\"";
    line += obs::escape(label);
    line += "\",\"round\":" + std::to_string(sample.round);
    line += ",\"sim_time\":" + std::to_string(sample.simTime);
    line += ",\"node\":" + std::to_string(sample.node);
    line += ",\"ball_size\":" + std::to_string(sample.ballSize);
    line += ",\"fanout\":" + std::to_string(sample.fanout);
    line += ",\"buffer_occupancy\":" + std::to_string(sample.bufferOccupancy);
    line += ",\"pending_relay\":" + std::to_string(sample.pendingRelay);
    line += "}";
    writer.writeRaw(line);
  }
  std::string line = "{\"type\":\"snapshot\",\"label\":\"";
  line += obs::escape(label);
  line += "\",\"ts\":" + std::to_string(result.simulatedTicks);
  line += ",\"samples\":[";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    if (i != 0) line += ',';
    line += obs::sampleJson(result.metrics[i]);
  }
  line += "]}";
  writer.writeRaw(line);
  writer.flush();
}

/// Open the --trace-out sink (lazily, like the metrics writer), widen the
/// global flight recorder to every trace type with the sink attached, and
/// write the label line that starts this condition's segment. The ring
/// streams each record to the file as it is recorded, so there is nothing
/// to flush between sections. tools/epto_trace.py splits the file on the
/// label lines, so one trace file carries a whole sweep.
inline void beginTraceSection(BenchArgs& args, const std::string& label) {
  if (args.traceOut.empty()) return;
  if (args.traceSink == nullptr) {
    // Detach before closing: the global recorder outlives the sink.
    args.traceSink = std::shared_ptr<obs::JsonlTraceSink>(
        new obs::JsonlTraceSink(args.traceOut), [](obs::JsonlTraceSink* sink) {
          obs::FlightRecorder::global().setSink(nullptr);
          delete sink;
        });
    if (!args.traceSink->ok()) {
      std::fprintf(stderr, "cannot open trace output: %s\n", args.traceOut.c_str());
      std::exit(2);
    }
#if !defined(EPTO_TRACE_ENABLED)
    std::fprintf(stderr,
                 "%s: warning: --trace-out given but this binary was built with "
                 "EPTO_TRACE=OFF; only label lines will be written\n",
                 args.binaryName.c_str());
#endif
    obs::FlightRecorder& recorder = obs::FlightRecorder::global();
    recorder.setTypeMask(obs::FlightRecorder::kFullMask);
    recorder.setSink(args.traceSink.get());
  }
  args.traceSink->writeLine(std::string("{\"type\":\"label\",\"label\":\"") +
                            obs::escape(label) + "\"}");
}

/// Default the observability sampling stride when metrics are requested.
inline void applySamplingDefault(workload::ExperimentConfig& config, const BenchArgs& args) {
  if (!args.metricsOut.empty() && config.metricsSampleEvery == 0) {
    // Roughly one RoundSample per system round: the global executed-round
    // counter advances systemSize times per round period.
    config.metricsSampleEvery = std::max<std::uint64_t>(1, config.systemSize / 8);
  }
}

/// Print one condition's CDF series plus verdict/summary lines — the
/// per-condition stdout contract described in the header comment.
inline void printConditionResult(const std::string& label,
                                 const workload::ExperimentResult& result,
                                 const BenchArgs& args) {
  const auto& delays = result.report.delays;
  if (!delays.empty()) {
    std::fputs(delays.formatRows(label, args.cdfSteps).c_str(), stdout);
    const auto s = delays.summary();
    std::printf(
        "%s summary mean=%.1f p50=%llu p95=%llu p99=%llu n_samples=%llu\n",
        label.c_str(), s.mean,
        static_cast<unsigned long long>(delays.percentile(0.50)),
        static_cast<unsigned long long>(delays.percentile(0.95)),
        static_cast<unsigned long long>(delays.percentile(0.99)),
        static_cast<unsigned long long>(delays.total()));
  } else {
    std::printf("%s summary (no deliveries)\n", label.c_str());
  }
  std::printf(
      "%s verdict holes=%llu order_violations=%llu integrity_violations=%llu "
      "validity_violations=%llu events=%llu deliveries=%llu K=%zu TTL=%u\n",
      label.c_str(), static_cast<unsigned long long>(result.report.holes),
      static_cast<unsigned long long>(result.report.orderViolations),
      static_cast<unsigned long long>(result.report.integrityViolations),
      static_cast<unsigned long long>(result.report.validityViolations),
      static_cast<unsigned long long>(result.report.eventsMeasured),
      static_cast<unsigned long long>(result.report.deliveries), result.fanoutUsed,
      result.ttlUsed);
  std::fflush(stdout);
}

/// One experimental condition of a figure sweep.
struct SweepItem {
  std::string label;
  workload::ExperimentConfig config;
};

/// Append one epto.bench.figs/1 record to --bench-json: the sweep's wall
/// clock plus per-condition counters. Schema documented in EXPERIMENTS.md
/// ("Performance methodology").
inline void writeBenchJson(const BenchArgs& args, const std::vector<SweepItem>& items,
                           const std::vector<workload::ExperimentResult>& results,
                           double wallSeconds) {
  if (args.benchJson.empty()) return;
  std::FILE* out = std::fopen(args.benchJson.c_str(), "a");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open bench json output: %s\n", args.benchJson.c_str());
    std::exit(2);
  }
  std::string line = "{\"schema\":\"epto.bench.figs/1\",\"binary\":\"";
  line += obs::escape(args.binaryName);
  line += "\",\"jobs\":" + std::to_string(args.jobs);
  char wall[64];
  std::snprintf(wall, sizeof wall, "%.3f", wallSeconds);
  line += ",\"wall_clock_s\":";
  line += wall;
  line += ",\"conditions\":[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) line += ',';
    line += "{\"label\":\"" + obs::escape(items[i].label) + "\"";
    line += ",\"events\":" + std::to_string(results[i].report.eventsMeasured);
    line += ",\"deliveries\":" + std::to_string(results[i].report.deliveries);
    line += ",\"sim_ticks\":" + std::to_string(results[i].simulatedTicks);
    line += ",\"rounds\":" + std::to_string(results[i].roundsExecuted);
    line += "}";
  }
  line += "]}\n";
  std::fputs(line.c_str(), out);
  std::fclose(out);
}

/// Run a whole sweep — every condition of the figure — on up to
/// args.jobs worker threads, then print each condition's series in
/// submission order. Each run is deterministic in its own seed and owns
/// all mutable state, so stdout (and the per-condition results) are
/// byte-identical for every --jobs value; only wall-clock time changes.
/// `perCondition`, when given, runs right after a condition's series is
/// printed (binaries append bespoke per-condition lines with it).
inline std::vector<workload::ExperimentResult> runSweep(
    std::vector<SweepItem> items, BenchArgs& args,
    const std::function<void(const SweepItem&, const workload::ExperimentResult&)>&
        perCondition = {}) {
  std::vector<workload::ExperimentConfig> configs;
  configs.reserve(items.size());
  for (auto& item : items) {
    applySamplingDefault(item.config, args);
    configs.push_back(item.config);
  }
  const auto start = std::chrono::steady_clock::now();
  std::vector<workload::ExperimentResult> results;
  if (!args.traceOut.empty()) {
    // Tracing forces sequential conditions: there is one process-global
    // trace ring, and the file is segmented by label lines — interleaved
    // conditions would corrupt each other's segments.
    results.reserve(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      beginTraceSection(args, items[i].label);
      results.push_back(workload::runExperiment(configs[i]));
    }
  } else {
    results = workload::runExperiments(configs, args.jobs);
  }
  const double wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  for (std::size_t i = 0; i < items.size(); ++i) {
    printConditionResult(items[i].label, results[i], args);
    if (perCondition) {
      perCondition(items[i], results[i]);
      std::fflush(stdout);
    }
    writeMetricsJsonl(args, items[i].label, results[i]);
  }
  writeBenchJson(args, items, results, wallSeconds);
  return results;
}

/// Run one condition and print its CDF series plus verdict/summary lines.
/// Returns the result for cross-condition comparisons. (Single-condition
/// convenience over runSweep; sequential by construction.)
inline workload::ExperimentResult runSeries(const std::string& label,
                                            const workload::ExperimentConfig& configIn,
                                            BenchArgs& args) {
  workload::ExperimentConfig config = configIn;
  applySamplingDefault(config, args);
  beginTraceSection(args, label);
  const auto result = workload::runExperiment(config);
  printConditionResult(label, result, args);
  writeMetricsJsonl(args, label, result);
  return result;
}

}  // namespace epto::bench
