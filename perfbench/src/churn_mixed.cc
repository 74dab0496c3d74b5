// churn_mixed: writes alongside reads. Filtered streams (16 tags), a
// standing population of 70% Regular, 20% Extended and 10% Safe queries,
// and an in-process open-loop producer at a fixed rate. On a fixed tick
// schedule a control thread registers and unregisters α-variants of the
// Extended templates (sharing groups form and dissolve) and verbatim
// duplicates of the Safe texts (prepared-plan dedup hits), and calls
// Checkpoint(). Registration replays the stored history (catch-up), so its
// cost grows with the tick it lands on: the schedule fixes those ticks.
// These operations hold the runtime's state mutex, so their cost also
// shows up in the tick latency. The analysis, registry and checkpoint
// layers do the work.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "harness.h"
#include "workloads.h"

namespace pb {

using lahar::QueryId;
using lahar::Timestamp;

namespace {

constexpr size_t kTags = 16;
constexpr size_t kStanding = 40;
// Inline runtime: with two workers a descheduled vCPU stalls every
// window's barrier, and on a shared host that made the drain throughput
// bimodal from run to run. The executor's threads are measured on
// archived_replay.
constexpr size_t kThreads = 1;
constexpr size_t kMaxLive = 64;  // results one tick may carry
constexpr Timestamp kBaseTicks = 2000;
constexpr double kRate = 500;
constexpr Timestamp kVariantEvery = 500;
constexpr Timestamp kVariantLife = 500;
constexpr Timestamp kSafeEvery = 2000;
constexpr Timestamp kSafeLife = 500;
constexpr Timestamp kCheckpointEvery = 1000;
constexpr Timestamp kRestoreTail = 200;
constexpr Timestamp kDrainTicks = 2000;
constexpr double kLimitMs = 50;
// Rungs a factor 4 apart around the inline drain capacity (~2k ticks/s).
const std::vector<double> kRungs = {250, 1000, 4000};

struct Action {
  enum Kind { kRegister, kUnregister, kCheckpoint };
  Timestamp tick;
  Kind kind;
  size_t text;  // texts[] index for register/unregister
  size_t slot;  // pairs a register with its unregister
};

// The churn schedule for a phase of n ticks. Every action lands at least
// 10 ticks before the end so all of them complete inside the phase.
std::vector<Action> Schedule(const Inputs& in, Timestamp n, size_t variants) {
  std::vector<Action> out;
  size_t slot = 0;
  for (size_t k = 0; k < variants; ++k) {
    const Timestamp at = kVariantEvery * static_cast<Timestamp>(k + 1);
    if (at + 10 > n) break;
    out.push_back({at, Action::kRegister, in.num_standing + k, slot});
    if (at + kVariantLife + 10 <= n) {
      out.push_back({at + kVariantLife, Action::kUnregister, 0, slot});
    }
    ++slot;
  }
  // Duplicate Safe texts (the standing Safe queries are the last ones):
  // their catch-up over the history makes them the costliest
  // registrations, which register_p95_ms reads.
  const size_t num_safe = kStanding / 10;
  for (Timestamp at = kSafeEvery, j = 0; at + 10 <= n;
       at += kSafeEvery, ++j) {
    const size_t text = in.num_standing - num_safe + j % 2;
    out.push_back({at, Action::kRegister, text, slot});
    if (at + kSafeLife + 10 <= n) {
      out.push_back({at + kSafeLife, Action::kUnregister, 0, slot});
    }
    ++slot;
  }
  for (Timestamp at = kCheckpointEvery / 2; at + 10 <= n;
       at += kCheckpointEvery) {
    out.push_back({at, Action::kCheckpoint, 0, 0});
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Action& a, const Action& b) {
                     return a.tick < b.tick;
                   });
  return out;
}

struct ChurnResult {
  Samples register_ms;
  Samples checkpoint_ms;
  double variant_us = 0;       // summed Extended α-variant registration time
  double variant_catchup = 0;  // summed ticks those registrations replayed
  size_t registrations = 0;
  std::string snapshot;
  lahar::RuntimeStats stats;
};

// Runs the schedule against `run` until every action is done or `stop`.
void Control(InprocRun* run, const std::vector<Action>& schedule,
             const std::atomic<bool>* stop, Checker* checker,
             ChurnResult* out) {
  lahar::StreamRuntime& rt = run->runtime();
  std::vector<QueryId> ids(schedule.size() + 1, 0);
  for (const Action& a : schedule) {
    while (rt.tick() < a.tick) {
      if (stop->load()) return;
      if (!rt.WaitForTick(a.tick, std::chrono::milliseconds(20))) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    checker->Attempt();
    double ms = 0;
    switch (a.kind) {
      case Action::kRegister: {
        const Timestamp at = rt.tick();
        ids[a.slot] = run->Register(a.text, &ms);
        if (ids[a.slot] == 0) {
          checker->Fail("churn register");
          break;
        }
        out->register_ms.Add(ms);
        ++out->registrations;
        if (a.text >= run->inputs().num_standing) {
          out->variant_us += ms * 1e3;
          out->variant_catchup += at;
        }
        break;
      }
      case Action::kUnregister:
        if (ids[a.slot] == 0 || !run->Unregister(ids[a.slot], &ms).ok()) {
          checker->Fail("churn unregister");
        }
        break;
      case Action::kCheckpoint: {
        const int64_t start = NowNs();
        lahar::Result<std::string> cp = lahar::Status::Internal("unset");
        {
          ScopedSpan span("runtime.checkpoint", a.tick);
          cp = rt.Checkpoint();
        }
        out->checkpoint_ms.Add(static_cast<double>(NowNs() - start) / 1e6);
        if (!cp.ok()) {
          checker->Fail("checkpoint: " + cp.status().ToString());
        } else {
          out->snapshot = std::move(*cp);
        }
        break;
      }
    }
  }
}

}  // namespace

void RunChurnMixed(const RunArgs& args, Report* report, Checker* checker) {
  const Timestamp churn_ticks =
      1 + static_cast<Timestamp>(kRate * 0.45 * args.seconds);
  const size_t variants = churn_ticks / kVariantEvery;
  const Timestamp max_ticks =
      std::max<Timestamp>(churn_ticks + kRestoreTail, kDrainTicks);
  Inputs in = MakeChurnInputs(args.seed, kTags, kBaseTicks, max_ticks,
                              kStanding, variants);
  report->Note("population: " + DescribePopulation(in, in.num_standing) +
               " standing, " + std::to_string(variants) +
               " extended alpha-variants churned");
  report->Note("payload: " + std::to_string(in.payload_bytes_per_tick) +
               " marginal bytes per tick");
  if (!PerturbedValueIsFlagged(in)) {
    checker->Fail("self-check: a perturbed reference value was not flagged");
  }
  const double rss_base = MemoryBaseline();
  const int64_t begin = NowNs();
  auto elapsed = [&] { return static_cast<double>(NowNs() - begin) / 1e9; };
  EndToEnd e;

  // Churn phase: open-loop producer plus the control thread's schedule.
  ChurnResult churn;
  OpenLoop loop;
  double restore_ms = 0;
  size_t snapshot_bytes = 0, depth_max = 0;
  uint64_t pushes = 0, backpressured = 0;
  {
    Tracer::Get().Enable(args.trace);
    InprocRun run(in, kThreads, 256, max_ticks, kMaxLive);
    e.setup_s.Add(run.Setup(nullptr));
    const std::vector<Action> schedule = Schedule(in, churn_ticks, variants);
    std::atomic<bool> stop{false};
    std::thread control(
        [&] { Control(&run, schedule, &stop, checker, &churn); });
    loop = RunOpenLoop(&run, kRate, churn_ticks);
    stop.store(true);
    control.join();
    churn.stats = run.runtime().Stats();
    run.runtime().Stop();
    depth_max = run.queue_depth_max();
    pushes = run.pushes();
    backpressured = run.backpressured();
    Tracer::Get().Enable(false);
    if (!loop.complete) {
      checker->Fail("churn phase incomplete");
      return;
    }
    run.Verify(1, loop.last, checker);
    e.latency_us = loop.latency_us;
    e.register_ms = churn.register_ms;
    e.checkpoint_ms = churn.checkpoint_ms;

    // A runtime restored from the last checkpoint must continue exactly
    // like the uninterrupted one.
    checker->Attempt();
    if (churn.snapshot.empty()) {
      checker->Fail("no checkpoint taken");
    } else {
      snapshot_bytes = churn.snapshot.size();
      InprocRun restored(in, kThreads, kRestoreTail + 1, max_ticks, kMaxLive);
      restore_ms = restored.SetupFromCheckpoint(churn.snapshot) * 1e3;
      restored.AdoptIds(run);
      const Timestamp from = restored.sent_through() + 1;
      const Timestamp to = restored.sent_through() + kRestoreTail;
      if (Drain(&restored, to) < 0) {
        checker->Fail("restored run did not complete");
      } else {
        restored.runtime().Stop();
        restored.Verify(from, to, checker);
      }
    }
  }

  // Drain phase: the standing population over a preloaded replay. A
  // traced run alternates traced and untraced reps (tracing overhead) and
  // adds 2-thread drains (executor.parallel_speedup).
  Samples traced_tps, parallel_tps;
  lahar::RuntimeStats drain_stats;
  double drain_s = 0;
  for (int rep = 0; rep < 5 || elapsed() < 0.75 * args.seconds; ++rep) {
    const bool traced = args.trace && rep % 2 == 1;
    for (size_t threads : {kThreads, size_t{2}}) {
      if (threads != kThreads && !args.trace) continue;
      InprocRun run(in, threads, kDrainTicks + 1, kDrainTicks, kMaxLive);
      e.setup_s.Add(run.Setup(nullptr));
      Tracer::Get().Enable(traced && threads == kThreads);
      const double secs = Drain(&run, kDrainTicks);
      Tracer::Get().Enable(false);
      if (secs < 0) {
        checker->Fail("drain did not complete");
        return;
      }
      const double tps = static_cast<double>(kDrainTicks - 1) / secs;
      if (threads != kThreads) {
        parallel_tps.Add(tps);
      } else if (traced) {
        traced_tps.Add(tps);
      } else {
        e.ticks_per_s.Add(tps);
        drain_stats = run.runtime().Stats();
        drain_s = secs;
      }
      run.runtime().Stop();
      run.Verify(1, kDrainTicks, checker);
    }
  }

  Ladder ladder = RunLadder(in, kRungs, 0.5, kLimitMs, kThreads, max_ticks,
                            &e.setup_s, checker, report);
  e.max_sustainable_tps = ladder.max_sustainable_tps;

  if (!args.trace) {
    ReportEndToEnd(e, rss_base, report);
    return;
  }

  // --- per-layer (traced run) -----------------------------------------
  report->Add("gen_s", in.gen_s, "s", 1);
  report->Add("gen.late_p99_us", loop.late_us.Quantile(0.99), "us",
              loop.late_us.size());
  report->Add("trace.overhead_frac",
              e.ticks_per_s.Median() / traced_tps.Median() - 1.0, "fraction",
              e.ticks_per_s.size() + traced_tps.size());
  report->Add("executor.parallel_speedup",
              parallel_tps.Median() / e.ticks_per_s.Median(), "ratio",
              parallel_tps.size());
  ReportRegistryLayers(churn.stats, in.num_standing + churn.registrations,
                       report);
  ReportExecutorLayers(drain_stats, drain_s, kThreads, report);
  report->Add("registry.register_us_per_catchup_tick",
              churn.variant_catchup > 0
                  ? churn.variant_us / churn.variant_catchup
                  : 0.0,
              "us", churn.registrations);
  report->Add("checkpoint.bytes", static_cast<double>(snapshot_bytes), "B", 1);
  report->Add("checkpoint.restore_ms", restore_ms, "ms", 1);
  auto sums = Tracer::Get().Summarize();
  report->Add("ingest.push_us", sums["ingest.push"].durations_ns.Median() / 1e3,
              "us", sums["ingest.push"].count);
  report->Add("ingest.queue_depth_max", static_cast<double>(depth_max),
              "batches", pushes);
  report->Add("ingest.backpressure_frac",
              pushes ? static_cast<double>(backpressured) / pushes : 0.0,
              "fraction", pushes);
  std::vector<size_t> standing(in.num_standing);
  for (size_t i = 0; i < standing.size(); ++i) standing[i] = i;
  ReportTwinLayers(in, standing, kDrainTicks, report);
  ReportPrepare(in, report);
}

}  // namespace pb
