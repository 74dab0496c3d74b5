// Mixed-class serving experiment: a realistic standing-query population —
// 70% grounded Regular selections, 20% Extended Regular sequences, 10%
// Safe plans — multiplexed through the QuerySession layer
// (engine/session.h) at 1..8 worker threads. The executor places whole
// sessions of every class on workers side by side, so no class serializes
// the tick (docs/RUNTIME.md).
//
// Per cell we preload the whole replay into the ingest queue, then time
// Start..WaitForTick(horizon): pure tick throughput, no producer in the
// way. One `JSON {...}` line per cell (grep ^JSON for the compare.py gate).
#include <string>
#include <vector>

#include "bench_util.h"
#include "runtime/executor.h"
#include "runtime/replay.h"

using namespace lahar;
using namespace lahar::bench;

namespace {

constexpr size_t kTags = 8;
constexpr Timestamp kHorizon = 200;
constexpr size_t kQueries = 20;  // 14 regular / 4 extended / 2 safe

// 70/20/10 regular/extended/safe population over the simulated building.
std::vector<std::string> MakeMixedQueries(const Scenario& scenario) {
  std::vector<std::string> out;
  const size_t num_safe = kQueries / 10;                   // 10%
  const size_t num_extended = kQueries / 5;                // 20%
  const size_t num_regular = kQueries - num_safe - num_extended;
  for (size_t i = 0; i < num_regular; ++i) {
    const std::string& tag = scenario.tags[i % scenario.tags.size()].name;
    out.push_back(i % 2 == 0
                      ? "At('" + tag + "', l : Room(l))"
                      : "At('" + tag + "', l : Hallway(l))");
  }
  const std::vector<std::string> extended = {
      "At(x, l : Room(l))",
      "At(x, l1 : NotRoom(l1)); At(x, l2 : Room(l2))",
      "At(x, l : Hallway(l))",
      "At(x, l1 : Hallway(l1)); At(x, l2 : Room(l2))",
  };
  for (size_t i = 0; i < num_extended; ++i) {
    out.push_back(extended[i % extended.size()]);
  }
  for (size_t i = 0; i < num_safe; ++i) {
    out.push_back(kSafeQuery);  // Fig. 14's Safe plan (distinct keys)
  }
  return out;
}

// Runs one thread-count cell; returns ticks/sec.
double RunCell(const EventDatabase& archive,
               const std::vector<TickBatch>& batches,
               const std::vector<std::string>& queries, size_t threads) {
  auto live = CloneDeclarations(archive);
  if (!live.ok()) {
    std::fprintf(stderr, "%s\n", live.status().ToString().c_str());
    return 0;
  }
  RuntimeOptions options;
  options.num_threads = threads;
  options.queue_capacity = batches.size();  // preload everything
  options.session.plan.assume_distinct_keys = true;  // compile kSafeQuery
  StreamRuntime runtime(live->get(), options);
  for (const std::string& q : queries) {
    auto id = runtime.Register(q);
    if (!id.ok()) {
      std::fprintf(stderr, "%s: %s\n", q.c_str(),
                   id.status().ToString().c_str());
      return 0;
    }
  }
  for (const TickBatch& b : batches) {
    if (!runtime.ingest().TryPush(b)) {
      std::fprintf(stderr, "preload overflowed the queue\n");
      return 0;
    }
  }
  double ms = TimeMs([&] {
    runtime.Start();
    runtime.WaitForTick(kHorizon, std::chrono::milliseconds(600000));
  });
  runtime.Stop();
  RuntimeStats stats = runtime.Stats();
  if (stats.ticks_processed != kHorizon || stats.batches_rejected != 0) {
    std::fprintf(stderr, "incomplete run: %s\n", stats.ToString().c_str());
    return 0;
  }
  size_t errors = 0;
  for (const QueryStats& qs : stats.queries) errors += qs.errors;
  if (errors != 0) {
    std::fprintf(stderr, "queries errored: %s\n", stats.ToString().c_str());
    return 0;
  }
  double ticks_per_sec = Throughput(kHorizon, ms);
  JsonLine()
      .Add("bench", std::string("t06_mixed_serving"))
      .Add("mix", std::string("70/20/10"))
      .Add("queries", queries.size())
      .Add("threads", threads)
      .Add("chains", stats.total_chains)
      .Add("ticks", static_cast<size_t>(kHorizon))
      .Add("time_ms", ms)
      .Add("ticks_per_sec", ticks_per_sec)
      .Add("tick_p99_us", stats.tick_latency.p99_us)
      .Print();
  return ticks_per_sec;
}

}  // namespace

int main() {
  std::printf(
      "Mixed-class serving | ticks/sec, %zu queries (70%% regular, 20%% "
      "extended, 10%% safe), %zu tags, horizon %u\n",
      kQueries, kTags, kHorizon);
  auto scenario = RandomWalkScenario(kTags, kHorizon, /*seed=*/43);
  if (!scenario.ok()) {
    std::fprintf(stderr, "%s\n", scenario.status().ToString().c_str());
    return 1;
  }
  auto archive = scenario->BuildDatabase(StreamKind::kFiltered);
  if (!archive.ok()) {
    std::fprintf(stderr, "%s\n", archive.status().ToString().c_str());
    return 1;
  }
  auto batches = ExtractBatches(**archive);
  if (!batches.ok()) {
    std::fprintf(stderr, "%s\n", batches.status().ToString().c_str());
    return 1;
  }

  const std::vector<std::string> queries = MakeMixedQueries(*scenario);
  const std::vector<size_t> thread_counts = {1, 2, 4, 8};
  std::vector<double> row;
  for (size_t t : thread_counts) {
    row.push_back(RunCell(**archive, *batches, queries, t));
  }
  std::printf("%-10s", "threads");
  for (size_t t : thread_counts) std::printf(" %8zu thr", t);
  std::printf("\n%-10s", "ticks/s");
  double base = 0, at4 = 0, at8 = 0;
  for (size_t i = 0; i < thread_counts.size(); ++i) {
    if (thread_counts[i] == 1) base = row[i];
    if (thread_counts[i] == 4) at4 = row[i];
    if (thread_counts[i] == 8) at8 = row[i];
    std::printf(" %12.1f", row[i]);
  }
  const double efficiency = base > 0 ? at8 / base : 0.0;
  std::printf("\nspeedup@4 %8.2fx  efficiency@8 %.2fx  (whole sessions "
              "side by side, one worker each; see docs/RUNTIME.md)\n",
              base > 0 ? at4 / base : 0.0, efficiency);
  // Derived metric on its own record (keyed by bench+mix only), matching
  // t04's summary line: compare.py --min-metric gates read it, the
  // per-cell regression pass ignores it.
  JsonLine()
      .Add("bench", std::string("t06_mixed_serving_summary"))
      .Add("mix", std::string("70/20/10"))
      .Add("scaling_efficiency_8t", efficiency)
      .Print();
  return 0;
}
