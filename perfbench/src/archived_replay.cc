// archived_replay: the paper's archived regime (§4.3, Fig. 13). Smoothed
// Markovian streams with a CPT per tag per tick, a 64-query population of
// grounded Regular and α-equivalent Extended queries (so the sharing path
// stays hot), drained from a preloaded replay by a 2-thread runtime. The
// engine, automaton and ingest layers do nearly all the work; net none.
//
// Safe queries are left out on purpose: a Safe plan over Markovian streams
// costs hundreds of ms per tick (see FINDINGS.md) and would drown every
// other layer.
#include <cstdio>

#include "harness.h"
#include "workloads.h"

namespace pb {

namespace {

constexpr size_t kTags = 32;
constexpr lahar::Timestamp kTicks = 200;
constexpr size_t kQueries = 64;
constexpr size_t kThreads = 2;
// Open-loop nominal rate (well under the drain throughput) and the fixed
// ladder. Rungs sit a factor 4 apart so that drift in capacity (±25%
// between runs here) cannot flip the highest sustained rung: capacity lies
// near the geometric middle between two rungs. A rung covers the whole
// replay, so an overloaded one ends with a clear backlog.
constexpr double kNominalRate = 250;
constexpr double kLimitMs = 50;
const std::vector<double> kRungs = {150, 600, 2400};
constexpr int kCheckpoints = 8;

struct DrainRep {
  double setup_s = 0;
  double drain_s = 0;
  double checkpoint_ms = 0;
  size_t checkpoint_bytes = 0;
  lahar::RuntimeStats stats;
  size_t pushes = 0, backpressured = 0, depth_max = 0;
};

// One preloaded drain. With `checkpoint` set, the drained (still running)
// runtime is checkpointed afterwards; `snapshot` keeps the bytes.
DrainRep OneDrain(const Inputs& in, size_t threads, Samples* register_ms,
                  Checker* checker, bool checkpoint, std::string* snapshot) {
  DrainRep rep;
  InprocRun run(in, threads, kTicks + 1, kTicks, in.num_standing);
  rep.setup_s = run.Setup(register_ms);
  rep.drain_s = Drain(&run, kTicks);
  if (rep.drain_s < 0) {
    checker->Fail("drain did not complete");
    return rep;
  }
  rep.stats = run.runtime().Stats();
  rep.pushes = run.pushes();
  rep.backpressured = run.backpressured();
  rep.depth_max = run.queue_depth_max();
  if (!checkpoint) {
    run.runtime().Stop();
    run.Verify(1, kTicks, checker);
    return rep;
  }
  const int64_t start = NowNs();
  lahar::Result<std::string> cp = lahar::Status::Internal("unset");
  {
    ScopedSpan span("runtime.checkpoint", kTicks);
    cp = run.runtime().Checkpoint();
  }
  rep.checkpoint_ms = static_cast<double>(NowNs() - start) / 1e6;
  checker->Attempt();
  if (!cp.ok()) {
    checker->Fail("checkpoint: " + cp.status().ToString());
  } else {
    rep.checkpoint_bytes = cp->size();
    if (snapshot != nullptr) *snapshot = std::move(*cp);
  }
  run.runtime().Stop();
  run.Verify(1, kTicks, checker);
  return rep;
}

}  // namespace

void RunArchivedReplay(const RunArgs& args, Report* report, Checker* checker) {
  // One extra α-variant beyond the standing population: registered late
  // (after the drain) to time catch-up over the full history.
  Inputs in = MakeArchivedInputs(args.seed, kTags, kTicks, kQueries + 1);
  in.num_standing = kQueries;
  const size_t late_text = kQueries;
  report->Note("population: " + DescribePopulation(in, in.num_standing));
  report->Note("payload: " + std::to_string(in.payload_bytes_per_tick) +
               " CPT/marginal bytes per tick, " + std::to_string(kTicks) +
               " ticks, " + std::to_string(kTags) + " tags");
  if (!PerturbedValueIsFlagged(in)) {
    checker->Fail("self-check: a perturbed reference value was not flagged");
  }
  const double rss_base = MemoryBaseline();
  const int64_t begin = NowNs();
  auto elapsed = [&] { return static_cast<double>(NowNs() - begin) / 1e9; };

  EndToEnd e;
  Samples traced_tps, untraced_tps, inline_tps;
  DrainRep last;
  std::string snapshot;
  size_t checkpoint_bytes = 0;
  size_t pushes = 0, backpressured = 0, depth_max = 0;
  // Drain phase: ~40% of the run. A 66 MB checkpoint costs more than a
  // drain, so only the first kCheckpoints reps take one. In a traced run,
  // reps alternate traced and untraced (tracing overhead), and 1-thread
  // drains interleave with 2-thread ones (executor.parallel_speedup).
  for (int rep = 0; rep < kCheckpoints || elapsed() < 0.4 * args.seconds;
       ++rep) {
    const bool traced = args.trace && rep % 2 == 0;
    Tracer::Get().Enable(traced);
    DrainRep r = OneDrain(in, kThreads, &e.register_ms, checker,
                          rep < kCheckpoints, args.trace ? &snapshot : nullptr);
    Tracer::Get().Enable(false);
    if (r.drain_s <= 0) return;
    const double tps = static_cast<double>(kTicks) / r.drain_s;
    e.setup_s.Add(r.setup_s);
    if (rep < kCheckpoints) {
      e.checkpoint_ms.Add(r.checkpoint_ms);
      checkpoint_bytes = r.checkpoint_bytes;
    }
    if (args.trace) {
      (traced ? traced_tps : untraced_tps).Add(tps);
      DrainRep one = OneDrain(in, 1, nullptr, checker, false, nullptr);
      if (one.drain_s > 0) inline_tps.Add(kTicks / one.drain_s);
    } else {
      e.ticks_per_s.Add(tps);
    }
    pushes += r.pushes;
    backpressured += r.backpressured;
    depth_max = std::max(depth_max, r.depth_max);
    last = std::move(r);
  }

  // Open-loop phase: the replay paced at a nominal rate, fresh runtime per
  // pass of kTicks ticks.
  Samples late_us;
  const double loop_end = 0.75 * args.seconds;
  for (int pass = 0; pass < 3 || elapsed() < loop_end; ++pass) {
    InprocRun run(in, kThreads, 256, kTicks, in.num_standing);
    e.setup_s.Add(run.Setup(nullptr));
    OpenLoop loop = RunOpenLoop(&run, kNominalRate, kTicks);
    run.runtime().Stop();
    if (!loop.complete) {
      checker->Fail("open-loop pass incomplete");
      return;
    }
    run.Verify(1, kTicks, checker);
    e.latency_us.Append(loop.latency_us);
    late_us.Append(loop.late_us);
  }

  Ladder ladder = RunLadder(in, kRungs, 0.8, kLimitMs, kThreads, kTicks,
                            &e.setup_s, checker, report);
  e.max_sustainable_tps = ladder.max_sustainable_tps;

  if (!args.trace) {
    ReportEndToEnd(e, rss_base, report);
    return;
  }

  // --- per-layer (traced run) -----------------------------------------
  report->Add("gen_s", in.gen_s, "s", 1);
  report->Add("gen.late_p99_us", late_us.Quantile(0.99), "us", late_us.size());
  report->Add("trace.overhead_frac",
              untraced_tps.Median() / traced_tps.Median() - 1.0, "fraction",
              traced_tps.size() + untraced_tps.size());
  report->Add("executor.parallel_speedup",
              untraced_tps.Median() / inline_tps.Median(),
              "ratio", inline_tps.size());
  ReportRegistryLayers(last.stats, in.num_standing, report);
  ReportExecutorLayers(last.stats, last.drain_s, kThreads, report);
  report->Add("checkpoint.bytes", static_cast<double>(checkpoint_bytes),
              "B", 1);
  {
    Samples restore_ms;
    for (int i = 0; i < 3; ++i) {
      InprocRun r(in, kThreads, 256, kTicks, in.num_standing);
      restore_ms.Add(r.SetupFromCheckpoint(snapshot) * 1e3);
    }
    report->Add("checkpoint.restore_ms", restore_ms.Median(), "ms",
                restore_ms.size());
  }
  {
    // Late registration: catch-up replays every stored tick.
    Tracer::Get().Enable(true);
    InprocRun run(in, kThreads, kTicks + 1, kTicks, in.num_standing);
    run.Setup(nullptr);
    Drain(&run, kTicks);
    double ms = 0;
    if (run.Register(late_text, &ms) == 0) checker->Fail("late register");
    Tracer::Get().Enable(false);
    report->Add("registry.register_us_per_catchup_tick",
                ms * 1e3 / static_cast<double>(kTicks), "us", 1);
  }
  auto sums = Tracer::Get().Summarize();
  const Tracer::Summary& push = sums["ingest.push"];
  report->Add("ingest.push_us", push.durations_ns.Median() / 1e3, "us",
              push.count);
  report->Add("ingest.queue_depth_max", static_cast<double>(depth_max),
              "batches", pushes);
  report->Add("ingest.backpressure_frac",
              pushes ? static_cast<double>(backpressured) / pushes : 0.0,
              "fraction", pushes);
  std::vector<size_t> standing(in.num_standing);
  for (size_t i = 0; i < standing.size(); ++i) standing[i] = i;
  ReportTwinLayers(in, standing, kTicks, report);
  ReportPrepare(in, report);
}

}  // namespace pb
