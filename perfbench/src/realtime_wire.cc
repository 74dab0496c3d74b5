// realtime_wire: the real-time regime over the network. Particle-filtered
// independent streams (16 tags) and 16 grounded Regular selections — about
// 0.1 µs of engine work per session-tick — behind a loopback net::Server
// fronting an inline runtime (num_threads = 1). One producer connection
// and three subscriber connections, each subscribed to every query. The
// net layer and the per-tick executor handshake do the work; the engine
// almost none.
//
// Phases: an open-loop phase at a nominal rate (tick latency: due time to
// the last subscriber's receipt), a fixed rate ladder (max sustainable
// rate), and a closed-loop phase where the producer sends its next batch
// when the server acks (delivered ticks/s). The traced run adds the
// in-process twin (same population and batches through StreamRuntime
// directly), which splits closed-loop time into wire and runtime.
#include <atomic>
#include <cstdio>
#include <thread>
#include <unordered_map>

#include "harness.h"
#include "net/client.h"
#include "net/server.h"
#include "runtime/replay.h"
#include "workloads.h"

namespace pb {

using lahar::QueryId;
using lahar::Timestamp;

namespace {

constexpr size_t kTags = 16;
constexpr size_t kQueries = 16;
constexpr size_t kSubscribers = 3;
constexpr Timestamp kBaseTicks = 500;  // filtered base, cycled
constexpr double kNominalRate = 5000;
constexpr int kNominalRuns = 6;
constexpr double kLimitMs = 50;
// Rungs a factor 5 apart: the closed-loop capacity (11-16k ticks/s) sits
// between the top two, well clear of both. The top rung is capped at
// max_ticks ticks, enough to show its backlog.
const std::vector<double> kRungs = {1000, 5000, 25000};
constexpr double kRungSeconds = 0.5;
constexpr double kClosedRepSeconds = 0.6;
constexpr auto kDeadline = std::chrono::milliseconds(2000);

// One loopback server + clients over a fresh runtime.
class WireRun {
 public:
  WireRun(Inputs* in, Timestamp max_ticks, Checker* checker)
      : in_(*in),
        max_ticks_(max_ticks),
        checker_(checker),
        recv_ns_(kSubscribers, std::vector<int64_t>(max_ticks + 1, 0)) {
    for (auto& s : seen_) s.store(0);
  }
  ~WireRun() { Teardown(); }
  WireRun(const WireRun&) = delete;
  WireRun& operator=(const WireRun&) = delete;

  double Setup(Samples* register_ms) {
    const int64_t start = NowNs();
    auto clone = lahar::CloneDeclarations(*in_.archive);
    CheckOk(clone.status(), "clone declarations");
    db_ = std::move(*clone);
    lahar::RuntimeOptions options;
    options.num_threads = 1;
    options.session = in_.session;
    runtime_ = std::make_unique<lahar::StreamRuntime>(db_.get(), options);
    runtime_->Start();
    server_ = std::make_unique<lahar::net::Server>(runtime_.get());
    CheckOk(server_->Start(), "server start");
    control_ = Connect("control");
    for (size_t i = 0; i < in_.num_standing; ++i) {
      double ms = 0;
      ids_.push_back(RegisterText(i, &ms));
      if (register_ms != nullptr) register_ms->Add(ms);
    }
    for (size_t s = 0; s < kSubscribers; ++s) {
      subs_.push_back(Connect("sub" + std::to_string(s)));
      for (QueryId id : ids_) CheckOk(subs_.back()->Subscribe(id), "subscribe");
    }
    producer_ = Connect("producer");
    if (!Send(1)) std::exit(2);
    const double secs = static_cast<double>(NowNs() - start) / 1e9;
    for (size_t s = 0; s < kSubscribers; ++s) {
      threads_.emplace_back([this, s] { Subscriber(s); });
    }
    return secs;
  }

  QueryId RegisterText(size_t text, double* ms) {
    const int64_t start = NowNs();
    lahar::Result<lahar::net::RegisteredBody> reg =
        lahar::Status::Internal("unset");
    {
      ScopedSpan span("net.register");
      reg = control_->RegisterQuery(in_.texts[text]);
    }
    *ms = static_cast<double>(NowNs() - start) / 1e6;
    CheckOk(reg.status(), "register " + in_.texts[text]);
    // Subscriber threads read the map unlocked: it is only filled before
    // they start (later registrations are not subscribed to).
    if (threads_.empty()) id_text_[reg->id] = text;
    return reg->id;
  }

  // Producer send with backpressure retry until the deadline.
  bool Send(Timestamp t) {
    const lahar::TickBatch& batch = in_.Stamped(t);
    const int64_t deadline = NowNs() + kDeadline.count() * 1'000'000;
    ++sends_;
    while (true) {
      lahar::Status s;
      {
        ScopedSpan span("net.ingest", t);
        s = producer_->Ingest(batch);
      }
      if (s.ok()) return true;
      if (s.code() != lahar::StatusCode::kOutOfRange || NowNs() > deadline) {
        checker_->Fail("ingest t=" + std::to_string(t) + ": " + s.ToString());
        return false;
      }
      ++backpressured_;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  // Waits until every subscriber has received tick t.
  bool WaitDelivered(Timestamp t, double timeout_s) {
    const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
    while (MinSeen() < t) {
      if (NowNs() > deadline || failed_.load()) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    return true;
  }

  Timestamp MinSeen() const {
    Timestamp m = seen_[0].load();
    for (size_t s = 1; s < kSubscribers; ++s) m = std::min(m, seen_[s].load());
    return m;
  }

  // Time the last subscriber received tick t.
  int64_t DeliveredNs(Timestamp t) const {
    int64_t m = 0;
    for (size_t s = 0; s < kSubscribers; ++s) m = std::max(m, recv_ns_[s][t]);
    return m;
  }

  void Teardown() {
    stop_.store(true);
    for (std::thread& t : threads_) t.join();
    threads_.clear();
    subs_.clear();
    producer_.reset();
    control_.reset();
    if (server_) server_->Stop();
    if (runtime_) {
      runtime_->ingest().Close();
      runtime_->Stop();
    }
    // Each run starts fresh server, coordinator and subscriber threads, and
    // the memory a finished run freed stays in whichever malloc arenas its
    // threads used; trimming keeps rss_mb at one run's footprint instead
    // of a count of arenas touched. (In-process runs reuse their freed
    // memory in the next repetition and need no trim.)
    server_.reset();
    runtime_.reset();
    db_.reset();
    ReleaseFreedMemory();
  }

  lahar::StreamRuntime& runtime() { return *runtime_; }
  lahar::net::Server& server() { return *server_; }
  uint64_t sends() const { return sends_; }
  uint64_t backpressured() const { return backpressured_; }

 private:
  std::unique_ptr<lahar::net::Client> Connect(const std::string& tenant) {
    auto c = lahar::net::Client::Connect("127.0.0.1", server_->port(), tenant);
    CheckOk(c.status(), "connect " + tenant);
    return std::move(*c);
  }

  void Subscriber(size_t s) {
    lahar::net::Client& client = *subs_[s];
    while (!stop_.load()) {
      lahar::Result<lahar::net::TickUpdateBody> update =
          lahar::Status::Internal("unset");
      {
        ScopedSpan span("net.next_update");
        update = client.NextUpdate(std::chrono::milliseconds(20));
      }
      if (!update.ok()) {
        if (update.status().code() == lahar::StatusCode::kOutOfRange) continue;
        if (!stop_.load()) {
          checker_->Fail("subscriber: " + update.status().ToString());
          failed_.store(true);
        }
        return;
      }
      const int64_t now = NowNs();
      const Timestamp t = update->t;
      if (t > max_ticks_) continue;
      recv_ns_[s][t] = now;
      checker_->Attempt();
      if (update->probs.size() != ids_.size()) {
        checker_->Fail("push for t=" + std::to_string(t) + " carried " +
                       std::to_string(update->probs.size()) + " values");
      }
      for (const auto& [id, p] : update->probs) {
        auto it = id_text_.find(id);
        if (it == id_text_.end()) {
          checker_->Fail("push for unknown query " + std::to_string(id));
          continue;
        }
        checker_->Expect(p, in_.Expected(it->second, t), [&] {
          return std::string("sub") + std::to_string(s) + " q" +
                 std::to_string(id) + "@" +
                 std::to_string(t);
        });
      }
      seen_[s].store(std::max(seen_[s].load(), t));
    }
  }

  Inputs& in_;
  Timestamp max_ticks_;
  Checker* checker_;
  std::unique_ptr<lahar::EventDatabase> db_;
  std::unique_ptr<lahar::StreamRuntime> runtime_;
  std::unique_ptr<lahar::net::Server> server_;
  std::unique_ptr<lahar::net::Client> control_;
  std::unique_ptr<lahar::net::Client> producer_;
  std::vector<std::unique_ptr<lahar::net::Client>> subs_;
  std::vector<QueryId> ids_;
  // Filled during setup, read-only once subscriber threads run.
  std::unordered_map<QueryId, size_t> id_text_;
  std::vector<std::vector<int64_t>> recv_ns_;  // [subscriber][tick]
  std::atomic<Timestamp> seen_[kSubscribers];
  std::atomic<bool> stop_{false};
  std::atomic<bool> failed_{false};
  std::vector<std::thread> threads_;
  uint64_t sends_ = 0;
  uint64_t backpressured_ = 0;
};

// Open loop over the wire: ticks 2..n sent on a fixed schedule.
OpenLoop WireOpenLoop(WireRun* run, double rate, Timestamp n) {
  OpenLoop out;
  if (!run->WaitDelivered(1, 5)) return out;
  const double period_ns = 1e9 / rate;
  const int64_t t0 = NowNs() + 2'000'000;
  auto due = [&](Timestamp t) {
    return t0 + static_cast<int64_t>(static_cast<double>(t - 2) * period_ns);
  };
  for (Timestamp t = 2; t <= n; ++t) {
    SleepUntilNs(due(t));
    out.late_us.Add(static_cast<double>(NowNs() - due(t)) / 1e3);
    if (!run->Send(t)) return out;
    out.last = t;
  }
  const Timestamp delivered = run->MinSeen();
  out.backlog_end = out.last > delivered ? out.last - delivered : 0;
  out.complete = run->WaitDelivered(out.last, 30);
  if (!out.complete) return out;
  for (Timestamp t = 2; t <= out.last; ++t) {
    out.latency_us.Add(static_cast<double>(run->DeliveredNs(t) - due(t)) / 1e3);
  }
  out.delivered_tps =
      static_cast<double>(out.last - 1) /
      (static_cast<double>(run->DeliveredNs(out.last) - t0) / 1e9);
  return out;
}

// Closed loop over the wire: the next batch goes out when the server acks
// the previous one. Returns delivered ticks/s, or a negative value.
double WireClosedLoop(WireRun* run, Timestamp max_ticks, double seconds,
                      Timestamp* last) {
  if (!run->WaitDelivered(1, 5)) return -1;
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(seconds * 1e9);
  Timestamp t = 1;
  while (t < max_ticks && NowNs() < stop) {
    if (!run->Send(t + 1)) return -1;
    ++t;
  }
  if (!run->WaitDelivered(t, 30)) return -1;
  *last = t;
  return static_cast<double>(t - 1) /
         (static_cast<double>(run->DeliveredNs(t) - start) / 1e9);
}

// The in-process twin of the closed loop: the same population and batches
// pushed straight into StreamRuntime's queue. Returns delivered ticks/s.
double InprocClosedLoop(const Inputs& in, size_t threads, Timestamp n,
                        Checker* checker, size_t* depth_max,
                        uint64_t* pushes) {
  InprocRun run(in, threads, 256, n, in.num_standing);
  run.Setup(nullptr);
  std::vector<lahar::TickBatch> batches(n + 1);
  for (Timestamp t = 2; t <= n; ++t) batches[t] = in.Batch(t);
  const int64_t start = NowNs();
  run.runtime().Start();
  for (Timestamp t = 2; t <= n; ++t) {
    if (!run.Push(std::move(batches[t]))) {
      checker->Fail("in-process push refused");
      return -1;
    }
  }
  if (!run.runtime().WaitForTick(n, std::chrono::milliseconds(30000))) {
    checker->Fail("in-process closed loop incomplete");
    return -1;
  }
  const double secs = static_cast<double>(NowNs() - start) / 1e9;
  run.runtime().Stop();
  run.Verify(1, n, checker);
  *depth_max = std::max(*depth_max, run.queue_depth_max());
  *pushes += run.pushes();
  return static_cast<double>(n - 1) / secs;
}

}  // namespace

void RunRealtimeWire(const RunArgs& args, Report* report, Checker* checker) {
  // The nominal phase runs as several fresh servers in turn, so thread
  // placement on the machine's cores changes from server to server.
  const Timestamp nominal_ticks = 1 + static_cast<Timestamp>(
      kNominalRate * 0.3 * args.seconds / kNominalRuns);
  const Timestamp max_ticks = std::max<Timestamp>(
      nominal_ticks, 1 + static_cast<Timestamp>(kRungs[1] * kRungSeconds));
  // One extra selection, registered late to time catch-up.
  Inputs in = MakeWireInputs(args.seed, kTags, kBaseTicks, max_ticks,
                             kQueries + 1);
  in.num_standing = kQueries;
  const size_t late_text = kQueries;
  report->Note("population: " + DescribePopulation(in, in.num_standing) +
               ", " + std::to_string(kSubscribers) + " subscribers");
  report->Note("payload: " + std::to_string(in.payload_bytes_per_tick) +
               " marginal bytes per tick");
  if (!PerturbedValueIsFlagged(in)) {
    checker->Fail("self-check: a perturbed reference value was not flagged");
  }
  const double rss_base = MemoryBaseline();
  const int64_t begin = NowNs();
  auto elapsed = [&] { return static_cast<double>(NowNs() - begin) / 1e9; };
  EndToEnd e;

  // Open-loop runs at the nominal rate, each followed by checkpoints of the
  // idle but running server's runtime.
  Samples late_us;
  Timestamp nominal_last = 0;
  std::string snapshot;
  size_t checkpoint_bytes = 0;
  double late_register_ms = 0;
  for (int r = 0; r < kNominalRuns; ++r) {
    Tracer::Get().Enable(args.trace);
    WireRun run(&in, max_ticks, checker);
    e.setup_s.Add(run.Setup(&e.register_ms));
    OpenLoop loop = WireOpenLoop(&run, kNominalRate, nominal_ticks);
    if (!loop.complete) {
      checker->Fail("open-loop run incomplete");
      return;
    }
    e.latency_us.Append(loop.latency_us);
    late_us.Append(loop.late_us);
    nominal_last = loop.last;
    for (int i = 0; i < 2; ++i) {
      const int64_t start = NowNs();
      lahar::Result<std::string> cp = lahar::Status::Internal("unset");
      {
        ScopedSpan span("runtime.checkpoint", loop.last);
        cp = run.runtime().Checkpoint();
      }
      e.checkpoint_ms.Add(static_cast<double>(NowNs() - start) / 1e6);
      checker->Attempt();
      if (!cp.ok()) {
        checker->Fail("checkpoint: " + cp.status().ToString());
      } else {
        checkpoint_bytes = cp->size();
        if (args.trace) snapshot = std::move(*cp);
      }
    }
    if (args.trace && r == 0) run.RegisterText(late_text, &late_register_ms);
    Tracer::Get().Enable(false);
  }

  Ladder ladder = ClimbLadder(kRungs, kLimitMs, [&](double rate) {
    const Timestamp n = std::min<Timestamp>(
        max_ticks, 1 + static_cast<Timestamp>(rate * kRungSeconds));
    WireRun run(&in, max_ticks, checker);
    e.setup_s.Add(run.Setup(&e.register_ms));
    OpenLoop loop = WireOpenLoop(&run, rate, n);
    // The top rung overloads the server on purpose; only a rung the
    // server keeps up with must deliver every tick.
    if (!loop.complete && rate < kRungs.back()) {
      checker->Fail("ladder rung incomplete");
    }
    return loop;
  }, report);
  e.max_sustainable_tps = ladder.max_sustainable_tps;

  // Closed-loop reps. A traced run alternates traced and untraced reps
  // (tracing overhead) and interleaves the in-process twin (wire share).
  Samples traced_tps, inproc_tps, inproc2_tps;
  lahar::NetStats net_closed;
  lahar::RuntimeStats closed_stats;
  double closed_s = 0;
  Timestamp closed_ticks = 0;
  size_t depth_max = 0;
  uint64_t pushes = 0, wire_sends = 0, wire_bp = 0;
  for (int rep = 0; rep < 3 || elapsed() < 0.9 * args.seconds; ++rep) {
    const bool traced = args.trace && rep % 2 == 1;
    double tps;
    {
      WireRun run(&in, max_ticks, checker);
      e.setup_s.Add(run.Setup(&e.register_ms));
      Tracer::Get().Enable(traced);
      Timestamp last = 0;
      tps = WireClosedLoop(&run, max_ticks, kClosedRepSeconds, &last);
      Tracer::Get().Enable(false);
      if (tps < 0) {
        checker->Fail("closed-loop rep incomplete");
        return;
      }
      if (!traced) {
        net_closed = run.server().NetCounters();
        closed_stats = run.server().Stats();
        closed_ticks = last;
        closed_s = static_cast<double>(last - 1) / tps;
      }
      wire_sends += run.sends();
      wire_bp += run.backpressured();
    }
    (traced ? traced_tps : e.ticks_per_s).Add(tps);
    if (args.trace) {
      const Timestamp n = std::min<Timestamp>(max_ticks, closed_ticks);
      inproc_tps.Add(InprocClosedLoop(in, 1, n, checker, &depth_max, &pushes));
      inproc2_tps.Add(InprocClosedLoop(in, 2, n, checker, &depth_max, &pushes));
    }
  }

  if (!args.trace) {
    ReportEndToEnd(e, rss_base, report);
    return;
  }
  // One traced in-process pass for the ingest.push spans.
  Tracer::Get().Enable(true);
  InprocClosedLoop(in, 1, max_ticks, checker, &depth_max, &pushes);
  Tracer::Get().Enable(false);

  // --- per-layer (traced run) -----------------------------------------
  report->Add("gen_s", in.gen_s, "s", 1);
  report->Add("gen.late_p99_us", late_us.Quantile(0.99), "us",
              late_us.size());
  report->Add("trace.overhead_frac",
              e.ticks_per_s.Median() / traced_tps.Median() - 1.0, "fraction",
              e.ticks_per_s.size() + traced_tps.size());
  report->Add("net.wire_share",
              1.0 - e.ticks_per_s.Median() / inproc_tps.Median(), "fraction",
              inproc_tps.size());
  report->Add("executor.parallel_speedup",
              inproc2_tps.Median() / inproc_tps.Median(), "ratio",
              inproc2_tps.size());
  ReportRegistryLayers(closed_stats, in.num_standing, report);
  ReportExecutorLayers(closed_stats, closed_s, 1, report);
  const double ticks = static_cast<double>(closed_ticks);
  report->Add("net.frames_out_per_tick",
              static_cast<double>(net_closed.frames_out) / ticks, "frames",
              closed_ticks);
  report->Add("net.bytes_out_per_tick",
              static_cast<double>(net_closed.bytes_out) / ticks, "B",
              closed_ticks);
  report->Add("checkpoint.bytes", static_cast<double>(checkpoint_bytes), "B",
              1);
  {
    Samples restore_ms;
    for (int i = 0; i < 3; ++i) {
      InprocRun r(in, 1, 256, max_ticks, in.num_standing);
      restore_ms.Add(r.SetupFromCheckpoint(snapshot) * 1e3);
    }
    report->Add("checkpoint.restore_ms", restore_ms.Median(), "ms",
                restore_ms.size());
  }
  report->Add("registry.register_us_per_catchup_tick",
              late_register_ms * 1e3 / static_cast<double>(nominal_last), "us",
              1);
  auto sums = Tracer::Get().Summarize();
  report->Add("net.ingest_rtt_p50_us",
              sums["net.ingest"].durations_ns.Median() / 1e3, "us",
              sums["net.ingest"].count);
  report->Add("ingest.push_us", sums["ingest.push"].durations_ns.Median() / 1e3,
              "us", sums["ingest.push"].count);
  report->Add("ingest.queue_depth_max", static_cast<double>(depth_max),
              "batches", pushes);
  report->Add("ingest.backpressure_frac",
              wire_sends ? static_cast<double>(wire_bp) / wire_sends : 0.0,
              "fraction", wire_sends);
  // Codec cost on this run's own frames: every batch the producer sent,
  // and the per-tick push each subscriber decoded.
  {
    Samples encode_ns, decode_ns;
    lahar::net::TickUpdateBody body;
    for (Timestamp t = 1; t <= std::min<Timestamp>(max_ticks, 2000); ++t) {
      lahar::serial::Writer w;
      lahar::net::EncodeBatch(in.Batch(t), &w);
      lahar::TickBatch decoded;
      int64_t start = NowNs();
      {
        ScopedSpan span("net.decode_batch", t);
        lahar::serial::Reader r(w.str());
        CheckOk(lahar::net::DecodeBatch(&r, &decoded), "decode batch");
      }
      decode_ns.Add(static_cast<double>(NowNs() - start));
      body.t = t;
      body.probs.clear();
      for (size_t q = 0; q < in.num_standing; ++q) {
        body.probs.emplace_back(q + 1, in.Expected(q, t));
      }
      lahar::serial::Writer push;
      start = NowNs();
      {
        ScopedSpan span("net.encode_tick_update", t);
        lahar::net::EncodeTickUpdate(body, &push);
      }
      encode_ns.Add(static_cast<double>(NowNs() - start));
    }
    report->Add("net.encode_ns_per_push", encode_ns.Median(), "ns",
                encode_ns.size());
    report->Add("net.decode_ns_per_batch", decode_ns.Median(), "ns",
                decode_ns.size());
  }
  std::vector<size_t> standing(in.num_standing);
  for (size_t i = 0; i < standing.size(); ++i) standing[i] = i;
  ReportTwinLayers(in, standing, std::min<Timestamp>(max_ticks, 4000), report);
  ReportPrepare(in, report);
}

}  // namespace pb
