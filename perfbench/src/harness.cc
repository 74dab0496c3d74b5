#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <thread>

#include "runtime/replay.h"

namespace pb {

using lahar::QueryId;
using lahar::Timestamp;

namespace {
constexpr auto kPushDeadline = std::chrono::milliseconds(2000);
constexpr auto kWaitDeadline = std::chrono::milliseconds(30000);
}  // namespace

InprocRun::InprocRun(const Inputs& in, size_t threads, size_t queue_capacity,
                     Timestamp max_ticks, size_t max_queries)
    : in_(in),
      threads_(threads),
      queue_capacity_(queue_capacity),
      max_ticks_(max_ticks),
      max_queries_(max_queries),
      publish_ns_(max_ticks + 1, 0),
      results_((max_ticks + 1) * max_queries),
      result_count_(max_ticks + 1, 0) {}

InprocRun::~InprocRun() {
  if (runtime_) runtime_->Stop();
}

double InprocRun::Setup(Samples* register_ms) {
  lahar::TickBatch first = in_.Batch(1);
  const int64_t start = NowNs();
  auto clone = lahar::CloneDeclarations(*in_.archive);
  CheckOk(clone.status(), "clone declarations");
  db_ = std::move(*clone);
  lahar::RuntimeOptions options;
  options.num_threads = threads_;
  options.queue_capacity = queue_capacity_;
  options.session = in_.session;
  runtime_ = std::make_unique<lahar::StreamRuntime>(db_.get(), options);
  runtime_->SetTickCallback(
      [this](const lahar::TickResult& r) { OnTick(r); });
  for (size_t i = 0; i < in_.num_standing; ++i) {
    double ms = 0;
    const QueryId id = Register(i, &ms);
    if (id == 0) std::exit(2);
    if (register_ms != nullptr) register_ms->Add(ms);
    standing_ids_.push_back(id);
  }
  if (!Push(std::move(first))) {
    std::fprintf(stderr, "setup: first batch refused\n");
    std::exit(2);
  }
  return static_cast<double>(NowNs() - start) / 1e9;
}

double InprocRun::SetupFromCheckpoint(const std::string& snapshot) {
  auto clone = lahar::CloneDeclarations(*in_.archive);
  CheckOk(clone.status(), "clone declarations");
  db_ = std::move(*clone);
  lahar::RuntimeOptions options;
  options.num_threads = threads_;
  options.queue_capacity = queue_capacity_;
  options.session = in_.session;
  runtime_ = std::make_unique<lahar::StreamRuntime>(db_.get(), options);
  runtime_->SetTickCallback(
      [this](const lahar::TickResult& r) { OnTick(r); });
  const int64_t start = NowNs();
  lahar::Status s;
  {
    ScopedSpan span("runtime.restore");
    s = runtime_->Restore(snapshot);
  }
  const double secs = static_cast<double>(NowNs() - start) / 1e9;
  CheckOk(s, "restore");
  // Nothing of the restored run is queued yet: Drain sends from tick()+1.
  sent_through_ = runtime_->tick();
  return secs;
}

QueryId InprocRun::Register(size_t text, double* ms) {
  const int64_t start = NowNs();
  lahar::Result<QueryId> id = lahar::Status::Internal("unset");
  {
    ScopedSpan span("runtime.register", runtime_->tick());
    id = runtime_->Register(in_.texts[text]);
  }
  *ms = static_cast<double>(NowNs() - start) / 1e6;
  if (!id.ok()) {
    std::fprintf(stderr, "register %s: %s\n", in_.texts[text].c_str(),
                 id.status().ToString().c_str());
    return 0;
  }
  id_text_[*id] = text;
  return *id;
}

lahar::Status InprocRun::Unregister(QueryId id, double* ms) {
  const int64_t start = NowNs();
  lahar::Status s;
  {
    ScopedSpan span("runtime.unregister", runtime_->tick());
    s = runtime_->Unregister(id);
  }
  *ms = static_cast<double>(NowNs() - start) / 1e6;
  return s;
}

bool InprocRun::Push(lahar::TickBatch batch) {
  ScopedSpan span("ingest.push", batch.t);
  lahar::IngestQueue& queue = runtime_->ingest();
  ++pushes_;
  // One producer: nothing but this thread adds to the queue, so a queue
  // below capacity is guaranteed to take the batch.
  const size_t depth = queue.size();
  queue_depth_max_ =
      std::max(queue_depth_max_, std::min(depth + 1, queue.capacity()));
  if (depth < queue.capacity() && queue.TryPush(std::move(batch))) return true;
  ++backpressured_;
  return queue.Push(std::move(batch), kPushDeadline).ok();
}

void InprocRun::OnTick(const lahar::TickResult& r) {
  ScopedSpan span("runtime.tick_callback", r.t);
  if (r.t > max_ticks_) return;
  publish_ns_[r.t] = NowNs();
  const size_t n = std::min(r.probs.size(), max_queries_);
  std::copy(r.probs.begin(), r.probs.begin() + static_cast<long>(n),
            results_.begin() + static_cast<long>(r.t * max_queries_));
  result_count_[r.t] = static_cast<uint32_t>(r.probs.size());
  recorded_.store(r.t, std::memory_order_release);
}

bool InprocRun::WaitRecorded(Timestamp t) {
  const int64_t deadline = NowNs() + kWaitDeadline.count() * 1'000'000;
  while (recorded_.load(std::memory_order_acquire) < t) {
    if (NowNs() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

void InprocRun::Verify(Timestamp from, Timestamp to, Checker* checker) {
  for (Timestamp t = from; t <= to; ++t) {
    if (result_count_[t] > max_queries_) {
      checker->Fail("tick " + std::to_string(t) + " carried too many results");
      continue;
    }
    const auto* row = &results_[t * max_queries_];
    const uint32_t n = result_count_[t];
    for (QueryId id : standing_ids_) {
      checker->Attempt();
      bool found = false;
      for (uint32_t i = 0; i < n && !found; ++i) found = row[i].first == id;
      if (!found) {
        checker->Fail("query " + std::to_string(id) + " missing at tick " +
                      std::to_string(t));
      }
    }
    for (uint32_t i = 0; i < n; ++i) {
      auto it = id_text_.find(row[i].first);
      if (it == id_text_.end()) {
        // Restored runs learn their ids from the snapshot's registrations.
        checker->Fail("unknown query id " + std::to_string(row[i].first));
        continue;
      }
      const QueryId id = row[i].first;
      checker->Expect(row[i].second, in_.Expected(it->second, t), [&] {
        return std::string("q") + std::to_string(id) + "@" + std::to_string(t);
      });
    }
  }
}

double Drain(InprocRun* run, Timestamp n) {
  const Inputs& in = run->inputs();
  std::vector<lahar::TickBatch> batches;
  for (Timestamp t = run->sent_through() + 1; t <= n; ++t) {
    batches.push_back(in.Batch(t));
  }
  for (lahar::TickBatch& b : batches) {
    if (!run->Push(std::move(b))) return -1;
  }
  const int64_t start = NowNs();
  run->runtime().Start();
  bool done;
  {
    ScopedSpan span("runtime.wait_for_tick", n);
    done = run->runtime().WaitForTick(n, kWaitDeadline);
  }
  const double secs = static_cast<double>(NowNs() - start) / 1e9;
  return done ? secs : -1;
}

OpenLoop RunOpenLoop(InprocRun* run, double rate, Timestamp n) {
  OpenLoop out;
  const Inputs& in = run->inputs();
  std::vector<lahar::TickBatch> batches(n + 1);
  for (Timestamp t = 2; t <= n; ++t) batches[t] = in.Batch(t);
  lahar::StreamRuntime& rt = run->runtime();
  rt.Start();
  if (!rt.WaitForTick(1, kWaitDeadline)) return out;
  const double period_ns = 1e9 / rate;
  const int64_t t0 = NowNs() + 2'000'000;
  auto due = [&](Timestamp t) {
    return t0 + static_cast<int64_t>(static_cast<double>(t - 2) * period_ns);
  };
  bool pushed_all = true;
  for (Timestamp t = 2; t <= n; ++t) {
    SleepUntilNs(due(t));
    out.late_us.Add(static_cast<double>(NowNs() - due(t)) / 1e3);
    if (!run->Push(std::move(batches[t]))) {
      pushed_all = false;
      break;
    }
    out.last = t;
  }
  const Timestamp published = rt.tick();
  out.backlog_end = out.last > published ? out.last - published : 0;
  {
    ScopedSpan span("runtime.wait_for_tick", out.last);
    out.complete = pushed_all && rt.WaitForTick(out.last, kWaitDeadline) &&
                   run->WaitRecorded(out.last);
  }
  if (!out.complete) return out;
  for (Timestamp t = 2; t <= out.last; ++t) {
    out.latency_us.Add(static_cast<double>(run->publish_ns(t) - due(t)) / 1e3);
  }
  out.delivered_tps = static_cast<double>(out.last - 1) /
                      (static_cast<double>(run->publish_ns(out.last) - t0) /
                       1e9);
  return out;
}

Ladder ClimbLadder(const std::vector<double>& rates, double limit_ms,
                   const std::function<OpenLoop(double)>& attempt,
                   Report* report) {
  Ladder ladder;
  for (double rate : rates) {
    RungResult rung;
    rung.rate = rate;
    const double backlog_limit = std::max(1.0, rate * limit_ms / 1e3);
    for (int tries = 0; tries < 2 && !rung.pass; ++tries) {
      rung.loop = attempt(rate);
      rung.pass = rung.loop.complete &&
                  rung.loop.latency_us.Quantile(0.99) <= limit_ms * 1e3 &&
                  static_cast<double>(rung.loop.backlog_end) <= backlog_limit;
      char buf[200];
      std::snprintf(buf, sizeof(buf),
                    "rung %7.0f ticks/s: p50 %9.1f us  p99 %10.1f us  "
                    "late_p99 %8.1f us  backlog_end %5llu  %s",
                    rate, rung.loop.latency_us.Median(),
                    rung.loop.latency_us.Quantile(0.99),
                    rung.loop.late_us.Quantile(0.99),
                    static_cast<unsigned long long>(rung.loop.backlog_end),
                    rung.pass ? "sustained" : "NOT sustained");
      report->Note(buf);
    }
    ladder.rungs.push_back(rung);
    if (!rung.pass) break;
    ladder.max_sustainable_tps = rung.loop.delivered_tps;
  }
  return ladder;
}

Ladder RunLadder(const Inputs& in, const std::vector<double>& rates,
                 double rung_seconds, double limit_ms, size_t threads,
                 Timestamp max_ticks, Samples* setup_s, Checker* checker,
                 Report* report) {
  return ClimbLadder(rates, limit_ms, [&](double rate) {
    const Timestamp n = std::min<Timestamp>(
        max_ticks, 1 + static_cast<Timestamp>(rate * rung_seconds));
    InprocRun run(in, threads, 256, n, in.num_standing);
    setup_s->Add(run.Setup(nullptr));
    OpenLoop loop = RunOpenLoop(&run, rate, n);
    run.runtime().Stop();
    if (!loop.complete) {
      checker->Fail("ladder rung " + std::to_string(rate) + " incomplete");
    } else {
      run.Verify(1, loop.last, checker);
    }
    return loop;
  }, report);
}

namespace {
double Frac(double num, double den) { return den > 0 ? num / den : 0.0; }
}  // namespace

void ReportRegistryLayers(const lahar::RuntimeStats& s, size_t registrations,
                          Report* report) {
  report->Add("registry.dedup_hit_frac",
              Frac(static_cast<double>(s.prepared_dedup_hits),
                   static_cast<double>(registrations)),
              "fraction", registrations);
  report->Add("registry.shared_step_frac",
              Frac(static_cast<double>(s.shared_steps_saved),
                   static_cast<double>(s.shared_steps_saved +
                                       s.shared_steps_executed)),
              "fraction", s.ticks_processed);
  report->Add("registry.sharing_groups", static_cast<double>(s.sharing_groups),
              "count", 1);
}

void ReportExecutorLayers(const lahar::RuntimeStats& s, double drain_s,
                          size_t threads, Report* report) {
  report->Add("automaton.kernel_hit_frac",
              Frac(static_cast<double>(s.kernel_cache_hits),
                   static_cast<double>(s.kernel_cache_hits +
                                       s.kernel_cache_misses)),
              "fraction", s.kernel_cache_hits + s.kernel_cache_misses);
  report->Add("automaton.simd_unit_frac",
              Frac(static_cast<double>(s.simd_units),
                   static_cast<double>(s.total_chains)),
              "fraction", s.total_chains);
  report->Add("automaton.stripe_fallback_frac",
              Frac(static_cast<double>(s.stripe_fallbacks),
                   static_cast<double>(s.stripe_steps + s.stripe_fallbacks)),
              "fraction", s.stripe_steps + s.stripe_fallbacks);
  report->Add("engine.bytes_per_chain",
              Frac(static_cast<double>(s.bytes_resident),
                   static_cast<double>(s.total_chains)),
              "B", s.total_chains);
  report->Add("executor.window_ticks_mean",
              Frac(static_cast<double>(s.ticks_processed),
                   static_cast<double>(s.windows_executed)),
              "ticks", s.windows_executed);
  report->Add("executor.barrier_p99_us", s.barrier_wait.p99_us, "us",
              s.barrier_wait.count);
  report->Add("executor.plan_rebuilds", static_cast<double>(s.plan_rebuilds),
              "count", 1);
  double advance_us = 0;
  for (const lahar::QueryStats& q : s.queries) {
    advance_us += q.advance.mean_us * static_cast<double>(q.advance.count);
  }
  report->Add("executor.overhead_frac",
              1.0 - Frac(advance_us,
                         drain_s * 1e6 * static_cast<double>(threads)),
              "fraction", s.ticks_processed);
}

void ReportTwinLayers(const Inputs& in, const std::vector<size_t>& texts,
                      Timestamp ticks, Report* report) {
  Tracer& tracer = Tracer::Get();
  const bool was_on = tracer.enabled();
  tracer.Enable(true);
  TwinRun twin = RunTwin(in, texts, ticks);
  tracer.Enable(was_on);
  auto sums = tracer.Summarize();
  double covered_ns = 0;
  for (const char* name : {"engine.regular.advance", "engine.extended.advance",
                           "engine.safe.advance"}) {
    const Tracer::Summary& s = sums[name];
    covered_ns += s.self_ns;
    report->Add(std::string(name).substr(0, std::string(name).size() - 8) +
                    ".advance_ns",
                s.count ? s.total_ns / static_cast<double>(s.count) : 0.0,
                "ns", s.count);
  }
  covered_ns += sums["engine.sampling.advance"].self_ns;
  const Tracer::Summary& apply = sums["ingest.apply"];
  covered_ns += apply.self_ns;
  report->Add("ingest.apply_us",
              apply.count
                  ? apply.total_ns / 1e3 / static_cast<double>(apply.count)
                  : 0.0,
              "us", apply.count);
  report->Add("twin.wall_s", twin.wall_s, "s", ticks);
  report->Add("twin.self_coverage", covered_ns / (twin.wall_s * 1e9),
              "fraction", ticks);
}

void ReportPrepare(const Inputs& in, Report* report) {
  auto clone = lahar::CloneDeclarations(*in.archive);
  CheckOk(clone.status(), "clone declarations");
  lahar::Lahar lahar(clone->get(), in.session);
  Samples us;
  for (int rep = 0; rep < 5; ++rep) {
    for (const std::string& text : in.texts) {
      const int64_t start = NowNs();
      {
        ScopedSpan span("analysis.prepare");
        auto prepared = lahar.Prepare(text);
        CheckOk(prepared.status(), "prepare " + text);
      }
      us.Add(static_cast<double>(NowNs() - start) / 1e3);
    }
  }
  report->Add("analysis.prepare_us", us.Median(), "us", us.size());
}

}  // namespace pb
