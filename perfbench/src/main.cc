// Repository benchmark program:
//
//   lahar_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload (archived_replay, realtime_wire, churn_mixed) in this
// process, prints every metric by name with its unit and sample count, and
// ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// with spans around the benchmark's calls into each layer and reports the
// per-layer metrics instead (plus the tracing overhead). Exits 1 when any
// operation failed or any delivered value differs bitwise from the
// engine-direct reference.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "workloads.h"

namespace pb {

namespace {

// Every metric the benchmark defines. run.py keeps, in the result line,
// the ones BENCHMARK.json lists ("end_to_end" / "per_layer").
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"ticks_per_s", "ticks/s"},
    {"tick_p50_us", "us"},
    {"tick_p99_us", "us"},
    {"max_sustainable_tps", "ticks/s"},
    {"register_p50_ms", "ms"},
    {"register_p95_ms", "ms"},
    {"checkpoint_ms", "ms"},
    {"rss_mb", "MB"},
};
const std::vector<MetricSpec> kPerLayer = {
    {"analysis.prepare_us", "us"},
    {"registry.register_us_per_catchup_tick", "us"},
    {"registry.dedup_hit_frac", "fraction"},
    {"registry.shared_step_frac", "fraction"},
    {"registry.sharing_groups", "count"},
    {"automaton.kernel_hit_frac", "fraction"},
    {"automaton.simd_unit_frac", "fraction"},
    {"automaton.stripe_fallback_frac", "fraction"},
    {"engine.regular.advance_ns", "ns"},
    {"engine.extended.advance_ns", "ns"},
    {"engine.safe.advance_ns", "ns"},
    {"engine.bytes_per_chain", "B"},
    {"ingest.apply_us", "us"},
    {"ingest.push_us", "us"},
    {"ingest.queue_depth_max", "batches"},
    {"ingest.backpressure_frac", "fraction"},
    {"executor.window_ticks_mean", "ticks"},
    {"executor.barrier_p99_us", "us"},
    {"executor.plan_rebuilds", "count"},
    {"executor.overhead_frac", "fraction"},
    {"executor.parallel_speedup", "ratio"},
    {"checkpoint.bytes", "B"},
    {"checkpoint.restore_ms", "ms"},
    {"net.ingest_rtt_p50_us", "us"},
    {"net.frames_out_per_tick", "frames"},
    {"net.bytes_out_per_tick", "B"},
    {"net.encode_ns_per_push", "ns"},
    {"net.decode_ns_per_batch", "ns"},
    {"net.wire_share", "fraction"},
    {"gen_s", "s"},
    {"gen.late_p99_us", "us"},
    {"trace.overhead_frac", "fraction"},
    {"twin.self_coverage", "fraction"},
};

bool ParseArgs(int argc, char** argv, RunArgs* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      continue;
    }
    const double v = std::strtod(value, &end);
    if (end == value || *end != '\0' || v < 0) return false;
    if (key == "--seed") {
      args->seed = static_cast<uint64_t>(v);
    } else if (key == "--seconds") {
      args->seconds = v;
    } else if (key == "--trace") {
      args->trace = v != 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

}  // namespace

double MemoryBaseline() {
  ReleaseFreedMemory();
  const double base = RssMb();
  ResetPeakRss();
  return base;
}

void ReportEndToEnd(const EndToEnd& e, double rss_base_mb, Report* report) {
  report->Add("setup_s", e.setup_s.Median(), "s", e.setup_s.size());
  // Interference from the machine only ever slows a repetition, so the
  // upper quartile of the repetitions tracks the program's own throughput
  // more steadily than their median, without resting on one lucky rep.
  report->Add("ticks_per_s", e.ticks_per_s.Quantile(0.75), "ticks/s",
              e.ticks_per_s.size());
  report->Add("tick_p50_us", e.latency_us.Median(), "us", e.latency_us.size());
  // The p99 per window of 1000 ticks (ten samples beyond it), median across
  // windows: one stalled stretch of the machine moves one window, not the
  // result.
  report->Add("tick_p99_us", e.latency_us.WindowedQuantile(0.99, 1000), "us",
              e.latency_us.size());
  report->Add("max_sustainable_tps", e.max_sustainable_tps, "ticks/s", 1);
  report->Add("register_p50_ms", e.register_ms.Median(), "ms",
              e.register_ms.size());
  report->Add("register_p95_ms", e.register_ms.Quantile(0.95), "ms",
              e.register_ms.size());
  report->Add("checkpoint_ms", e.checkpoint_ms.Median(), "ms",
              e.checkpoint_ms.size());
  report->Add("rss_mb", PeakRssMb() - rss_base_mb, "MB", 1);
}

}  // namespace pb

int main(int argc, char** argv) {
  pb::RunArgs args;
  if (!pb::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload archived_replay|realtime_wire|"
                 "churn_mixed --seed N --seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }
  pb::Report report;
  pb::Checker checker;
  std::printf("workload %s seed %llu seconds %.0f trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  if (args.workload == "archived_replay") {
    pb::RunArchivedReplay(args, &report, &checker);
  } else if (args.workload == "realtime_wire") {
    pb::RunRealtimeWire(args, &report, &checker);
  } else if (args.workload == "churn_mixed") {
    pb::RunChurnMixed(args, &report, &checker);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const uint64_t attempted = std::max<uint64_t>(1, checker.attempted());
  report.Add("error_rate",
             static_cast<double>(checker.failed()) /
                 static_cast<double>(attempted),
             "fraction", attempted);
  report.Note("bitwise mismatches: " + std::to_string(checker.mismatches()));
  std::vector<std::string> keep;
  std::string missing;
  for (const pb::MetricSpec& m : args.trace ? pb::kPerLayer : pb::kEndToEnd) {
    keep.push_back(m.name);
    if (report.Has(m.name)) continue;
    // A layer this workload never exercises (e.g. net on an in-process
    // workload): it did no work, so it reports zero.
    report.Add(m.name, 0.0, m.unit, 0);
    missing += std::string(" ") + m.name;
  }
  if (!missing.empty()) report.Note("not exercised here:" + missing);
  // run.py points PERFBENCH_TRACE_DIR at the build directory.
  const char* trace_dir = std::getenv("PERFBENCH_TRACE_DIR");
  if (args.trace && trace_dir != nullptr) {
    const std::string path = std::string(trace_dir) + "/trace-" +
                             args.workload + "-" + std::to_string(args.seed) +
                             ".json";
    // Keeps the file a few tens of MB; the summaries above use every span.
    constexpr size_t kMaxWritten = 200'000;
    if (pb::Tracer::Get().WriteChromeTrace(path, kMaxWritten)) {
      report.Note("trace written to " + path + " (at most " +
                  std::to_string(kMaxWritten) + " of " +
                  std::to_string(pb::Tracer::Get().num_spans()) + " spans)");
    }
  }
  const bool correct = checker.failed() == 0;
  report.PrintResult(correct, attempted, checker.failed(), keep);
  return correct ? 0 : 1;
}
