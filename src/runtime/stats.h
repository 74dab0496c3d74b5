// Counters for the multi-query streaming runtime: per-query and per-shard
// advance latency, ticks processed, queue depth, and drops. Everything is a
// plain struct so benches and the CLI can print or serialize them without
// pulling in the runtime itself.
#ifndef LAHAR_RUNTIME_STATS_H_
#define LAHAR_RUNTIME_STATS_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

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

/// \brief Per-query counters, snapshot at Stats() time.
struct QueryStats {
  QueryId id = 0;
  std::string text;
  /// Query class and serving engine names (strings so this header stays
  /// free of analysis/engine includes).
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
  /// Safe-path cache counters (zero for the other classes): live interval
  /// memo entries / reg rows and the eviction activity that keeps them
  /// bounded (see engine/safe_engine.h).
  size_t memo_entries = 0;
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
  uint64_t memo_evictions = 0;
  size_t rows_live = 0;
  uint64_t row_evictions = 0;
  uint64_t row_rebuilds = 0;
  /// Kernel-cache lookups attributable to building this query's session
  /// (hits mean a structurally equal kernel compiled earlier — by this
  /// query or any other — was reused; see docs/SHARING.md).
  uint64_t kernel_hits = 0;
  uint64_t kernel_misses = 0;
  /// Units of this query currently delegated to cross-query shared
  /// sub-chains (stepped once per tick for all their readers).
  size_t shared_units = 0;
  /// Units of this query stepping on the vectorized SoA kernel path
  /// (docs/PERF.md).
  size_t simd_units = 0;
  /// Whole-stripe steps taken / stripes demoted to per-unit steps.
  /// Fallbacks are data-dependent: the executor steps every session whole,
  /// so placement changes must not grow them.
  uint64_t stripe_steps = 0;
  uint64_t stripe_fallbacks = 0;
  // --- chain lifecycle (docs/PERF.md "Chain lifecycle") -------------------
  /// Session memory footprint in bytes (resident chains + stubs + spill
  /// arena). num_chains counts *registered* units; resident + stub +
  /// spilled partitions them for lifecycle sessions (all resident
  /// otherwise).
  size_t bytes_resident = 0;
  size_t resident_units = 0;  ///< units holding a materialized chain
  size_t stub_units = 0;      ///< lazy stubs never promoted (~16 B each)
  size_t spilled_units = 0;   ///< cold chains in the spill arena
  uint64_t promotions = 0;    ///< stub -> resident transitions
  uint64_t spills = 0;        ///< resident -> spilled/stub transitions
  uint64_t rehydrations = 0;  ///< spilled -> resident transitions
};

/// \brief Per-shard counters, snapshot at Stats() time.
struct ShardStats {
  size_t shard = 0;
  uint64_t ticks = 0;
  uint64_t chains_stepped = 0;
  /// Wall time the shard spent on its work items per tick.
  LatencySummary tick;
};

/// \brief Per-tenant admission-control counters (see net/server.h).
struct NetTenantStats {
  std::string tenant;
  uint64_t ingest_frames = 0;   ///< ingest frames accepted into the queue
  uint64_t quota_rejected = 0;  ///< ingest frames shed by the token bucket
};

/// \brief Counters for the TCP serving front-end (net/server.h), merged
/// into RuntimeStats by Server::Stats(). All zero when no server is
/// attached, in which case ToString omits the net section.
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
};

/// \brief Full runtime snapshot.
struct RuntimeStats {
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
  /// Safe-path cache totals across every safe session (bounded-memory
  /// serving observability; per-query breakdown in QueryStats).
  size_t safe_memo_entries = 0;
  uint64_t safe_memo_evictions = 0;
  size_t safe_rows_live = 0;
  uint64_t safe_row_evictions = 0;
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
  /// Chains stepping on the vectorized SoA kernel path across all queries
  /// (docs/PERF.md), with their whole-stripe steps and per-unit demotions.
  size_t simd_units = 0;
  uint64_t stripe_steps = 0;
  uint64_t stripe_fallbacks = 0;
  // --- chain lifecycle totals (docs/PERF.md "Chain lifecycle") ------------
  /// Summed session footprints; total_chains counts registered units, and
  /// resident + stub + spilled partitions them.
  size_t bytes_resident = 0;
  size_t resident_units = 0;
  size_t stub_units = 0;
  size_t spilled_units = 0;
  uint64_t promotions = 0;
  uint64_t spills = 0;
  uint64_t rehydrations = 0;
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

  /// Multi-line human-readable table.
  std::string ToString() const;
  /// One JSON object (the shape bench_t04_runtime_scaling emits per cell).
  /// All embedded strings — query text, error messages, tenant names — are
  /// JSON-escaped, so a query containing `"` stays parseable.
  std::string ToJson() const;
};

/// Escapes `s` for embedding inside a JSON string literal (quotes,
/// backslashes, and control characters).
std::string JsonEscape(std::string_view s);

}  // namespace lahar

#endif  // LAHAR_RUNTIME_STATS_H_
