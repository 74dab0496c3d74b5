// Counters for the multi-query streaming runtime: per-query and per-shard
// advance latency, ticks processed, queue depth, and drops. Everything is a
// plain struct so benches and the CLI can print or serialize them without
// pulling in the runtime itself. Each struct lists its fields once in a
// static Fields(f) (see engine/counters.h); ToString and ToJson walk those
// lists, so the text dump, the JSON object and the net kStats reply carry
// the same fields under the same keys.
#ifndef LAHAR_RUNTIME_STATS_H_
#define LAHAR_RUNTIME_STATS_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/counters.h"
#include "model/value.h"

namespace lahar {

/// Stable identifier of a registered standing query (see runtime/registry.h).
using QueryId = uint64_t;

/// \brief Summary of a latency distribution, in microseconds.
///
/// Percentiles come from a log-scale histogram (power-of-two nanosecond
/// buckets), so they are accurate to within a factor of ~2 — enough to spot
/// stragglers, not a substitute for a profiler.
struct LatencySummary {
  uint64_t count = 0;
  double min_us = 0;
  double mean_us = 0;
  double p50_us = 0;
  double p99_us = 0;
  double max_us = 0;

  template <typename F>
  static void Fields(F&& f) {
    f("count", &LatencySummary::count);
    f("min_us", &LatencySummary::min_us);
    f("mean_us", &LatencySummary::mean_us);
    f("p50_us", &LatencySummary::p50_us);
    f("p99_us", &LatencySummary::p99_us);
    f("max_us", &LatencySummary::max_us);
  }
};

/// \brief Cheap fixed-size latency histogram (no allocation on record).
class LatencyRecorder {
 public:
  void Record(uint64_t ns);
  LatencySummary Summarize() const;
  void Reset();

 private:
  static constexpr size_t kBuckets = 64;  // bucket b covers [2^b, 2^{b+1}) ns
  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
  uint64_t min_ns_ = UINT64_MAX;
  uint64_t max_ns_ = 0;
  double sum_ns_ = 0;
};

/// \brief Per-query counters, snapshot at Stats() time. The
/// SessionCounters base is the session's own report
/// (QuerySession::Counters).
struct QueryStats : SessionCounters {
  QueryId id = 0;
  std::string text;
  /// Query class and serving engine names (strings, so this header needs
  /// no analysis or engine types).
  std::string query_class;
  std::string engine;
  /// False when the session serves (epsilon, delta) sampling estimates.
  bool exact = true;
  /// Units: chains for streaming sessions, samples for sampling sessions,
  /// grounding groups for a safe plan.
  size_t num_chains = 0;
  uint64_t ticks = 0;
  uint64_t errors = 0;      ///< ticks whose Advance failed
  std::string last_error;   ///< empty when the last advance succeeded
  /// Wall time spent advancing this query per tick.
  LatencySummary advance;
  /// Kernel-cache lookups attributable to building this query's session
  /// (hits mean a structurally equal kernel compiled earlier — by this
  /// query or any other — was reused; see docs/SHARING.md).
  uint64_t kernel_hits = 0;
  uint64_t kernel_misses = 0;

  template <typename F>
  static void Fields(F&& f) {
    f("id", &QueryStats::id);
    f("class", &QueryStats::query_class);
    f("engine", &QueryStats::engine);
    f("exact", &QueryStats::exact);
    f("units", &QueryStats::num_chains);
    f("ticks", &QueryStats::ticks);
    f("errors", &QueryStats::errors);
    f("kernel_hits", &QueryStats::kernel_hits);
    f("kernel_misses", &QueryStats::kernel_misses);
    SessionCounters::Fields(f);
    f("advance", &QueryStats::advance);
    f("text", &QueryStats::text);
    f("last_error", &QueryStats::last_error);
  }
};

/// \brief Per-shard counters, snapshot at Stats() time.
struct ShardStats {
  size_t shard = 0;
  uint64_t ticks = 0;
  uint64_t chains_stepped = 0;
  /// Wall time the shard spent on its work items per tick.
  LatencySummary tick;

  template <typename F>
  static void Fields(F&& f) {
    f("shard", &ShardStats::shard);
    f("ticks", &ShardStats::ticks);
    f("chains_stepped", &ShardStats::chains_stepped);
    f("tick", &ShardStats::tick);
  }
};

/// \brief Per-tenant admission-control counters (see net/server.h). The
/// tenant name keys the entry, so it is not in the field list.
struct NetTenantStats {
  std::string tenant;
  uint64_t ingest_frames = 0;   ///< ingest frames accepted into the queue
  uint64_t quota_rejected = 0;  ///< ingest frames shed by the token bucket

  template <typename F>
  static void Fields(F&& f) {
    f("ingest", &NetTenantStats::ingest_frames);
    f("quota_rejected", &NetTenantStats::quota_rejected);
  }
};

/// \brief Counters for the TCP serving front-end (net/server.h), merged
/// into RuntimeStats by Server::Stats(). All zero when no server is
/// attached.
struct NetStats {
  size_t connections = 0;          ///< currently open
  uint64_t total_connections = 0;  ///< accepted since Start
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t protocol_errors = 0;   ///< error frames sent for malformed input
  uint64_t quota_rejected = 0;    ///< ingest frames shed by tenant quotas
  uint64_t backpressure_rejected = 0;  ///< ingest frames shed, queue full
  uint64_t slow_disconnects = 0;  ///< connections dropped at the outbound cap
  size_t subscriptions = 0;       ///< live (connection, query) subscriptions
  std::vector<NetTenantStats> tenants;  ///< sorted by tenant name

  template <typename F>
  static void Fields(F&& f) {
    f("connections", &NetStats::connections);
    f("total_connections", &NetStats::total_connections);
    f("subscriptions", &NetStats::subscriptions);
    f("frames_in", &NetStats::frames_in);
    f("frames_out", &NetStats::frames_out);
    f("bytes_in", &NetStats::bytes_in);
    f("bytes_out", &NetStats::bytes_out);
    f("protocol_errors", &NetStats::protocol_errors);
    f("quota_rejected", &NetStats::quota_rejected);
    f("backpressure_rejected", &NetStats::backpressure_rejected);
    f("slow_disconnects", &NetStats::slow_disconnects);
    f("tenants", &NetStats::tenants);
  }
};

/// \brief Full runtime snapshot. The SessionCounters base holds the
/// field-wise sum of every query's counters (total_chains counts
/// registered units, and resident + stub + spilled partitions them).
struct RuntimeStats : SessionCounters {
  Timestamp tick = 0;            ///< last completed tick
  uint64_t ticks_processed = 0;  ///< ticks executed since Start
  size_t num_queries = 0;
  size_t total_chains = 0;
  size_t num_threads = 0;
  size_t queue_depth = 0;
  size_t queue_capacity = 0;
  uint64_t queue_dropped = 0;    ///< TryPush load-shed (queue at capacity)
  uint64_t queue_closed_rejected = 0;  ///< TryPush after Close (shutdown)
  uint64_t batches_applied = 0;
  uint64_t batches_rejected = 0;  ///< malformed batches skipped by ingest
  std::string last_ingest_error;  ///< empty when every batch applied cleanly
  size_t reorder_depth = 0;       ///< updates held in the reorder buffer
  size_t reorder_window = 0;      ///< configured reorder window (ticks)
  uint64_t reorder_late_dropped = 0;  ///< stale duplicates dropped
  uint64_t reorder_merged = 0;        ///< buffered duplicates merged away
  /// Registered queries per class, (class name, count) in class order —
  /// every class the runtime is currently serving, including approximate
  /// sampling sessions.
  std::vector<std::pair<std::string, size_t>> class_counts;
  /// Per-tick advance latency aggregated per query class, (class name,
  /// summary) in class order — makes a regression in one class observable
  /// even when the mixed tick latency hides it.
  std::vector<std::pair<std::string, LatencySummary>> class_latency;
  // --- cross-query sharing counters (docs/SHARING.md) ---------------------
  /// Materialized sharing groups: sub-chain units stepped once per tick
  /// and read by >= 2 sessions.
  size_t sharing_groups = 0;
  /// Chain steps executed by shared units since Start.
  uint64_t shared_steps_executed = 0;
  /// Chain steps the readers did NOT execute thanks to sharing: every unit
  /// step saves (readers - 1) private steps.
  uint64_t shared_steps_saved = 0;
  /// Group fan-out (readers per materialized group), log2 buckets like
  /// window_size_hist: [1] [2] [3-4] [5-8] ... 65+.
  std::vector<uint64_t> sharing_fanout_hist;
  /// Textually identical registrations served from the prepared-plan cache
  /// instead of reparsing and reclassifying.
  uint64_t prepared_dedup_hits = 0;
  /// Registry-wide compiled-kernel cache: lookups across every session
  /// build plus the number of distinct kernels held.
  uint64_t kernel_cache_hits = 0;
  uint64_t kernel_cache_misses = 0;
  size_t kernel_cache_entries = 0;
  /// End-to-end per-tick wall time. Under windowed execution each tick of
  /// a window records the window's wall time divided by its width, so the
  /// count still equals ticks_processed and the mean is the true
  /// amortized per-tick cost.
  LatencySummary tick_latency;
  // --- windowed-executor counters (see runtime/executor.h) ---------------
  uint64_t windows_executed = 0;  ///< batched windows run (>= 1 tick each)
  size_t max_window_ticks = 0;    ///< configured window cap (W <= this)
  /// Window widths, log2 buckets: [1] [2] [3-4] [5-8] [9-16] [17-32]
  /// [33-64] and 65+. Mass in the first bucket means producers never run
  /// ahead (per-tick barriers); mass to the right is amortized handshakes.
  std::vector<uint64_t> window_size_hist;
  /// Work-plan rebuilds: register/unregister bumps the registry version,
  /// and the next window rebuilds the placement from static costs.
  /// Deterministically >= 1 once a window has run, and grows with each
  /// churn batch.
  uint64_t plan_rebuilds = 0;
  /// Coordinator wait at the end-of-window barrier (one record per window,
  /// multi-threaded runs only) — the pool's straggler skew.
  LatencySummary barrier_wait;
  /// TCP front-end counters; all-zero unless the stats came through
  /// net::Server::Stats() (a bare StreamRuntime has no server attached).
  NetStats net;
  std::vector<QueryStats> queries;
  std::vector<ShardStats> shards;

  template <typename F>
  static void Fields(F&& f) {
    f("tick", &RuntimeStats::tick);
    f("ticks_processed", &RuntimeStats::ticks_processed);
    f("queries", &RuntimeStats::num_queries);
    f("chains", &RuntimeStats::total_chains);
    f("threads", &RuntimeStats::num_threads);
    f("queue_depth", &RuntimeStats::queue_depth);
    f("queue_capacity", &RuntimeStats::queue_capacity);
    f("queue_dropped", &RuntimeStats::queue_dropped);
    f("queue_closed_rejected", &RuntimeStats::queue_closed_rejected);
    f("batches_applied", &RuntimeStats::batches_applied);
    f("batches_rejected", &RuntimeStats::batches_rejected);
    f("last_ingest_error", &RuntimeStats::last_ingest_error);
    f("reorder_depth", &RuntimeStats::reorder_depth);
    f("reorder_window", &RuntimeStats::reorder_window);
    f("reorder_late_dropped", &RuntimeStats::reorder_late_dropped);
    f("reorder_merged", &RuntimeStats::reorder_merged);
    f("windows_executed", &RuntimeStats::windows_executed);
    f("max_window_ticks", &RuntimeStats::max_window_ticks);
    f("plan_rebuilds", &RuntimeStats::plan_rebuilds);
    f("window_size_hist", &RuntimeStats::window_size_hist);
    f("barrier_wait", &RuntimeStats::barrier_wait);
    f("classes", &RuntimeStats::class_counts);
    SessionCounters::Fields(f);
    f("sharing_groups", &RuntimeStats::sharing_groups);
    f("shared_steps_executed", &RuntimeStats::shared_steps_executed);
    f("shared_steps_saved", &RuntimeStats::shared_steps_saved);
    f("prepared_dedup_hits", &RuntimeStats::prepared_dedup_hits);
    f("kernel_cache_hits", &RuntimeStats::kernel_cache_hits);
    f("kernel_cache_misses", &RuntimeStats::kernel_cache_misses);
    f("kernel_cache_entries", &RuntimeStats::kernel_cache_entries);
    f("sharing_fanout_hist", &RuntimeStats::sharing_fanout_hist);
    f("class_latency", &RuntimeStats::class_latency);
    f("net", &RuntimeStats::net);
    f("query_stats", &RuntimeStats::queries);
    f("shards", &RuntimeStats::shards);
    f("tick_latency", &RuntimeStats::tick_latency);
  }

  /// Human-readable dump: one line per struct, `key=value` pairs under the
  /// JSON key names, zero and empty values left out. Nested structs and
  /// list entries (queries, shards, tenants, ...) follow on their own
  /// indented lines.
  std::string ToString() const;
  /// One JSON object carrying every field, also the body of the net
  /// kStats reply. All embedded strings — query text, error messages,
  /// tenant names — are JSON-escaped, so a query containing `"` stays
  /// parseable.
  std::string ToJson() const;
};

/// Escapes `s` for embedding inside a JSON string literal (quotes,
/// backslashes, and control characters).
std::string JsonEscape(std::string_view s);

}  // namespace lahar

#endif  // LAHAR_RUNTIME_STATS_H_
