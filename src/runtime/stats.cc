#include "runtime/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace lahar {
namespace {

// Index of the power-of-two bucket holding `ns` (0 for ns <= 1).
size_t BucketOf(uint64_t ns) {
  size_t b = 0;
  while (ns > 1) {
    ns >>= 1;
    ++b;
  }
  return b;
}

// Geometric midpoint of bucket b, in nanoseconds.
double BucketMid(size_t b) {
  return std::sqrt(static_cast<double>(1ULL << b) *
                   static_cast<double>(b + 1 < 64 ? (1ULL << (b + 1)) : ~0ULL));
}

std::string FormatUs(double us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", us);
  return buf;
}

void AppendJsonLatency(std::string* out, const char* name,
                       const LatencySummary& s) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "\"%s\":{\"count\":%llu,\"min_us\":%.3f,\"mean_us\":%.3f,"
                "\"p50_us\":%.3f,\"p99_us\":%.3f,\"max_us\":%.3f}",
                name, static_cast<unsigned long long>(s.count), s.min_us,
                s.mean_us, s.p50_us, s.p99_us, s.max_us);
  *out += buf;
}

}  // namespace

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

void LatencyRecorder::Record(uint64_t ns) {
  ++counts_[std::min(BucketOf(ns), kBuckets - 1)];
  ++count_;
  min_ns_ = std::min(min_ns_, ns);
  max_ns_ = std::max(max_ns_, ns);
  sum_ns_ += static_cast<double>(ns);
}

LatencySummary LatencyRecorder::Summarize() const {
  LatencySummary s;
  s.count = count_;
  if (count_ == 0) return s;
  s.min_us = static_cast<double>(min_ns_) / 1000.0;
  s.max_us = static_cast<double>(max_ns_) / 1000.0;
  s.mean_us = sum_ns_ / static_cast<double>(count_) / 1000.0;
  auto percentile = [&](double p) {
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(p * static_cast<double>(count_)));
    rank = std::max<uint64_t>(rank, 1);
    uint64_t seen = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      seen += counts_[b];
      if (seen >= rank) {
        // Clamp the histogram estimate into the observed range.
        return std::min(static_cast<double>(max_ns_),
                        std::max(static_cast<double>(min_ns_),
                                 BucketMid(b))) /
               1000.0;
      }
    }
    return s.max_us;
  };
  s.p50_us = percentile(0.50);
  s.p99_us = percentile(0.99);
  return s;
}

void LatencyRecorder::Reset() { *this = LatencyRecorder(); }

std::string RuntimeStats::ToString() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "runtime: tick=%u ticks_processed=%llu queries=%zu "
                "units=%zu threads=%zu\n",
                tick, static_cast<unsigned long long>(ticks_processed),
                num_queries, total_chains, num_threads);
  out += buf;
  if (!class_counts.empty()) {
    out += "classes:";
    for (const auto& [name, count] : class_counts) {
      std::snprintf(buf, sizeof(buf), " %s=%zu", name.c_str(), count);
      out += buf;
    }
    out += "\n";
  }
  std::snprintf(buf, sizeof(buf),
                "ingest:  depth=%zu/%zu dropped=%llu closed_rejected=%llu "
                "applied=%llu rejected=%llu%s%s\n",
                queue_depth, queue_capacity,
                static_cast<unsigned long long>(queue_dropped),
                static_cast<unsigned long long>(queue_closed_rejected),
                static_cast<unsigned long long>(batches_applied),
                static_cast<unsigned long long>(batches_rejected),
                last_ingest_error.empty() ? "" : " last_error=",
                last_ingest_error.c_str());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "reorder: depth=%zu window=%zu late_dropped=%llu "
                "merged=%llu\n",
                reorder_depth, reorder_window,
                static_cast<unsigned long long>(reorder_late_dropped),
                static_cast<unsigned long long>(reorder_merged));
  out += buf;
  if (windows_executed > 0) {
    std::snprintf(buf, sizeof(buf),
                  "windows: executed=%llu cap=%zu plan_rebuilds=%llu hist=[",
                  static_cast<unsigned long long>(windows_executed),
                  max_window_ticks,
                  static_cast<unsigned long long>(plan_rebuilds));
    out += buf;
    for (size_t i = 0; i < window_size_hist.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%llu", i > 0 ? " " : "",
                    static_cast<unsigned long long>(window_size_hist[i]));
      out += buf;
    }
    out += "]\n";
    if (barrier_wait.count > 0) {
      std::snprintf(buf, sizeof(buf),
                    "barrier wait (us): mean=%s p50=%s p99=%s max=%s\n",
                    FormatUs(barrier_wait.mean_us).c_str(),
                    FormatUs(barrier_wait.p50_us).c_str(),
                    FormatUs(barrier_wait.p99_us).c_str(),
                    FormatUs(barrier_wait.max_us).c_str());
      out += buf;
    }
  }
  if (total_chains > 0 || bytes_resident > 0) {
    std::snprintf(buf, sizeof(buf),
                  "memory:  bytes_resident=%zu resident=%zu/%zu stubs=%zu "
                  "spilled=%zu promotions=%llu spills=%llu "
                  "rehydrations=%llu\n",
                  bytes_resident, resident_units, total_chains, stub_units,
                  spilled_units, static_cast<unsigned long long>(promotions),
                  static_cast<unsigned long long>(spills),
                  static_cast<unsigned long long>(rehydrations));
    out += buf;
  }
  if (safe_memo_entries > 0 || safe_memo_evictions > 0 ||
      safe_rows_live > 0 || safe_row_evictions > 0) {
    std::snprintf(buf, sizeof(buf),
                  "safe:    memo_entries=%zu memo_evictions=%llu "
                  "rows_live=%zu row_evictions=%llu\n",
                  safe_memo_entries,
                  static_cast<unsigned long long>(safe_memo_evictions),
                  safe_rows_live,
                  static_cast<unsigned long long>(safe_row_evictions));
    out += buf;
  }
  if (sharing_groups > 0 || shared_steps_saved > 0 ||
      prepared_dedup_hits > 0 || kernel_cache_hits > 0 ||
      kernel_cache_misses > 0) {
    std::snprintf(buf, sizeof(buf),
                  "sharing: groups=%zu steps_executed=%llu steps_saved=%llu "
                  "plan_dedup_hits=%llu kernels=%zu kernel_hits=%llu "
                  "kernel_misses=%llu simd_units=%zu stripe_steps=%llu "
                  "stripe_fallbacks=%llu fanout_hist=[",
                  sharing_groups,
                  static_cast<unsigned long long>(shared_steps_executed),
                  static_cast<unsigned long long>(shared_steps_saved),
                  static_cast<unsigned long long>(prepared_dedup_hits),
                  kernel_cache_entries,
                  static_cast<unsigned long long>(kernel_cache_hits),
                  static_cast<unsigned long long>(kernel_cache_misses),
                  simd_units, static_cast<unsigned long long>(stripe_steps),
                  static_cast<unsigned long long>(stripe_fallbacks));
    out += buf;
    for (size_t i = 0; i < sharing_fanout_hist.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%llu", i > 0 ? " " : "",
                    static_cast<unsigned long long>(sharing_fanout_hist[i]));
      out += buf;
    }
    out += "]\n";
  }
  if (net.total_connections > 0 || net.connections > 0) {
    std::snprintf(buf, sizeof(buf),
                  "net:     conns=%zu/%llu subs=%zu frames=%llu/%llu "
                  "bytes=%llu/%llu proto_errors=%llu quota_rejected=%llu "
                  "backpressure=%llu slow_disconnects=%llu\n",
                  net.connections,
                  static_cast<unsigned long long>(net.total_connections),
                  net.subscriptions,
                  static_cast<unsigned long long>(net.frames_in),
                  static_cast<unsigned long long>(net.frames_out),
                  static_cast<unsigned long long>(net.bytes_in),
                  static_cast<unsigned long long>(net.bytes_out),
                  static_cast<unsigned long long>(net.protocol_errors),
                  static_cast<unsigned long long>(net.quota_rejected),
                  static_cast<unsigned long long>(net.backpressure_rejected),
                  static_cast<unsigned long long>(net.slow_disconnects));
    out += buf;
    for (const NetTenantStats& t : net.tenants) {
      std::snprintf(buf, sizeof(buf),
                    "  tenant %s: ingest=%llu quota_rejected=%llu\n",
                    t.tenant.c_str(),
                    static_cast<unsigned long long>(t.ingest_frames),
                    static_cast<unsigned long long>(t.quota_rejected));
      out += buf;
    }
  }
  std::snprintf(buf, sizeof(buf),
                "tick latency (us): min=%s mean=%s p50=%s p99=%s max=%s\n",
                FormatUs(tick_latency.min_us).c_str(),
                FormatUs(tick_latency.mean_us).c_str(),
                FormatUs(tick_latency.p50_us).c_str(),
                FormatUs(tick_latency.p99_us).c_str(),
                FormatUs(tick_latency.max_us).c_str());
  out += buf;
  for (const auto& [name, lat] : class_latency) {
    if (lat.count == 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "  class %s: ticks=%llu mean=%sus p50=%sus p99=%sus\n",
                  name.c_str(), static_cast<unsigned long long>(lat.count),
                  FormatUs(lat.mean_us).c_str(), FormatUs(lat.p50_us).c_str(),
                  FormatUs(lat.p99_us).c_str());
    out += buf;
  }
  for (const ShardStats& s : shards) {
    std::snprintf(buf, sizeof(buf),
                  "  shard %zu: ticks=%llu chains=%llu mean=%sus p99=%sus\n",
                  s.shard, static_cast<unsigned long long>(s.ticks),
                  static_cast<unsigned long long>(s.chains_stepped),
                  FormatUs(s.tick.mean_us).c_str(),
                  FormatUs(s.tick.p99_us).c_str());
    out += buf;
  }
  for (const QueryStats& q : queries) {
    std::snprintf(buf, sizeof(buf),
                  "  query %llu: class=%s engine=%s%s units=%zu ticks=%llu "
                  "mean=%sus p99=%sus%s%s  %s\n",
                  static_cast<unsigned long long>(q.id),
                  q.query_class.c_str(), q.engine.c_str(),
                  q.exact ? "" : " (sampled)", q.num_chains,
                  static_cast<unsigned long long>(q.ticks),
                  FormatUs(q.advance.mean_us).c_str(),
                  FormatUs(q.advance.p99_us).c_str(),
                  q.last_error.empty() ? "" : " last_error=",
                  q.last_error.c_str(),
                  q.text.size() > 48 ? (q.text.substr(0, 45) + "...").c_str()
                                     : q.text.c_str());
    out += buf;
    if (q.memo_entries > 0 || q.memo_evictions > 0 || q.rows_live > 0 ||
        q.row_evictions > 0) {
      std::snprintf(buf, sizeof(buf),
                    "    safe memo: entries=%zu hits=%llu misses=%llu "
                    "evictions=%llu rows=%zu row_evictions=%llu "
                    "row_rebuilds=%llu\n",
                    q.memo_entries,
                    static_cast<unsigned long long>(q.memo_hits),
                    static_cast<unsigned long long>(q.memo_misses),
                    static_cast<unsigned long long>(q.memo_evictions),
                    q.rows_live,
                    static_cast<unsigned long long>(q.row_evictions),
                    static_cast<unsigned long long>(q.row_rebuilds));
      out += buf;
    }
    if (q.stub_units > 0 || q.spilled_units > 0 || q.promotions > 0 ||
        q.spills > 0 || q.rehydrations > 0) {
      std::snprintf(buf, sizeof(buf),
                    "    lifecycle: bytes=%zu resident=%zu/%zu stubs=%zu "
                    "spilled=%zu promotions=%llu spills=%llu "
                    "rehydrations=%llu\n",
                    q.bytes_resident, q.resident_units, q.num_chains,
                    q.stub_units, q.spilled_units,
                    static_cast<unsigned long long>(q.promotions),
                    static_cast<unsigned long long>(q.spills),
                    static_cast<unsigned long long>(q.rehydrations));
      out += buf;
    }
    if (q.shared_units > 0 || q.kernel_hits > 0 || q.kernel_misses > 0 ||
        q.simd_units > 0) {
      std::snprintf(buf, sizeof(buf),
                    "    sharing: delegated_units=%zu kernel_hits=%llu "
                    "kernel_misses=%llu simd_units=%zu stripe_steps=%llu "
                    "stripe_fallbacks=%llu\n",
                    q.shared_units,
                    static_cast<unsigned long long>(q.kernel_hits),
                    static_cast<unsigned long long>(q.kernel_misses),
                    q.simd_units,
                    static_cast<unsigned long long>(q.stripe_steps),
                    static_cast<unsigned long long>(q.stripe_fallbacks));
      out += buf;
    }
  }
  return out;
}

std::string RuntimeStats::ToJson() const {
  std::string out = "{";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "\"tick\":%u,\"ticks_processed\":%llu,\"queries\":%zu,"
                "\"chains\":%zu,\"threads\":%zu,\"queue_depth\":%zu,"
                "\"queue_capacity\":%zu,\"queue_dropped\":%llu,"
                "\"queue_closed_rejected\":%llu,"
                "\"batches_applied\":%llu,\"batches_rejected\":%llu,"
                "\"reorder_depth\":%zu,\"reorder_window\":%zu,"
                "\"reorder_late_dropped\":%llu,\"reorder_merged\":%llu,",
                tick, static_cast<unsigned long long>(ticks_processed),
                num_queries, total_chains, num_threads, queue_depth,
                queue_capacity, static_cast<unsigned long long>(queue_dropped),
                static_cast<unsigned long long>(queue_closed_rejected),
                static_cast<unsigned long long>(batches_applied),
                static_cast<unsigned long long>(batches_rejected),
                reorder_depth, reorder_window,
                static_cast<unsigned long long>(reorder_late_dropped),
                static_cast<unsigned long long>(reorder_merged));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "\"windows_executed\":%llu,\"max_window_ticks\":%zu,"
                "\"plan_rebuilds\":%llu,\"window_size_hist\":[",
                static_cast<unsigned long long>(windows_executed),
                max_window_ticks,
                static_cast<unsigned long long>(plan_rebuilds));
  out += buf;
  for (size_t i = 0; i < window_size_hist.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%llu", i > 0 ? "," : "",
                  static_cast<unsigned long long>(window_size_hist[i]));
    out += buf;
  }
  out += "],";
  AppendJsonLatency(&out, "barrier_wait", barrier_wait);
  out += ",";
  if (!class_counts.empty()) {
    out += "\"classes\":{";
    for (size_t i = 0; i < class_counts.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\":%zu", i > 0 ? "," : "",
                    class_counts[i].first.c_str(), class_counts[i].second);
      out += buf;
    }
    out += "},";
  }
  std::snprintf(buf, sizeof(buf),
                "\"safe_memo_entries\":%zu,\"safe_memo_evictions\":%llu,"
                "\"safe_rows_live\":%zu,\"safe_row_evictions\":%llu,",
                safe_memo_entries,
                static_cast<unsigned long long>(safe_memo_evictions),
                safe_rows_live,
                static_cast<unsigned long long>(safe_row_evictions));
  out += buf;
  // Lifecycle totals are always present (all units resident and zero
  // transitions when no session runs the chain lifecycle).
  std::snprintf(buf, sizeof(buf),
                "\"bytes_resident\":%zu,\"resident_units\":%zu,"
                "\"stub_units\":%zu,\"spilled_units\":%zu,"
                "\"promotions\":%llu,\"spills\":%llu,\"rehydrations\":%llu,",
                bytes_resident, resident_units, stub_units, spilled_units,
                static_cast<unsigned long long>(promotions),
                static_cast<unsigned long long>(spills),
                static_cast<unsigned long long>(rehydrations));
  out += buf;
  // Sharing counters are always present (zeros when sharing is disabled or
  // no workload overlaps) so dashboards need no field probing.
  std::snprintf(buf, sizeof(buf),
                "\"sharing_groups\":%zu,\"shared_steps_executed\":%llu,"
                "\"shared_steps_saved\":%llu,\"prepared_dedup_hits\":%llu,"
                "\"kernel_cache_hits\":%llu,\"kernel_cache_misses\":%llu,"
                "\"kernel_cache_entries\":%zu,\"simd_units\":%zu,"
                "\"stripe_steps\":%llu,\"stripe_fallbacks\":%llu,"
                "\"sharing_fanout_hist\":[",
                sharing_groups,
                static_cast<unsigned long long>(shared_steps_executed),
                static_cast<unsigned long long>(shared_steps_saved),
                static_cast<unsigned long long>(prepared_dedup_hits),
                static_cast<unsigned long long>(kernel_cache_hits),
                static_cast<unsigned long long>(kernel_cache_misses),
                kernel_cache_entries, simd_units,
                static_cast<unsigned long long>(stripe_steps),
                static_cast<unsigned long long>(stripe_fallbacks));
  out += buf;
  for (size_t i = 0; i < sharing_fanout_hist.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%llu", i > 0 ? "," : "",
                  static_cast<unsigned long long>(sharing_fanout_hist[i]));
    out += buf;
  }
  out += "],";
  if (!class_latency.empty()) {
    out += "\"class_latency\":{";
    bool first = true;
    for (const auto& [name, lat] : class_latency) {
      if (lat.count == 0) continue;
      if (!first) out += ",";
      first = false;
      out += "\"" + name + "\":";
      std::string inner;
      AppendJsonLatency(&inner, "advance", lat);
      // AppendJsonLatency emits `"advance":{...}`; keep just the object.
      out += inner.substr(inner.find('{'));
    }
    out += "},";
  }
  if (net.total_connections > 0 || net.connections > 0) {
    std::snprintf(buf, sizeof(buf),
                  "\"net\":{\"connections\":%zu,\"total_connections\":%llu,"
                  "\"subscriptions\":%zu,\"frames_in\":%llu,"
                  "\"frames_out\":%llu,\"bytes_in\":%llu,\"bytes_out\":%llu,"
                  "\"protocol_errors\":%llu,\"quota_rejected\":%llu,"
                  "\"backpressure_rejected\":%llu,\"slow_disconnects\":%llu,"
                  "\"tenants\":{",
                  net.connections,
                  static_cast<unsigned long long>(net.total_connections),
                  net.subscriptions,
                  static_cast<unsigned long long>(net.frames_in),
                  static_cast<unsigned long long>(net.frames_out),
                  static_cast<unsigned long long>(net.bytes_in),
                  static_cast<unsigned long long>(net.bytes_out),
                  static_cast<unsigned long long>(net.protocol_errors),
                  static_cast<unsigned long long>(net.quota_rejected),
                  static_cast<unsigned long long>(net.backpressure_rejected),
                  static_cast<unsigned long long>(net.slow_disconnects));
    out += buf;
    for (size_t i = 0; i < net.tenants.size(); ++i) {
      const NetTenantStats& t = net.tenants[i];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\":{\"ingest\":%llu,\"quota_rejected\":%llu}",
                    i > 0 ? "," : "", JsonEscape(t.tenant).c_str(),
                    static_cast<unsigned long long>(t.ingest_frames),
                    static_cast<unsigned long long>(t.quota_rejected));
      out += buf;
    }
    out += "}},";
  }
  // Per-query entries carry caller-controlled strings (the query text, the
  // last error); JsonEscape keeps a query like At('he said "hi"', ...) from
  // corrupting the emitted object.
  out += "\"query_stats\":[";
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryStats& q = queries[i];
    if (i > 0) out += ",";
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":%llu,\"class\":\"%s\",\"engine\":\"%s\","
                  "\"exact\":%s,\"units\":%zu,\"ticks\":%llu,"
                  "\"errors\":%llu,\"kernel_hits\":%llu,"
                  "\"kernel_misses\":%llu,\"shared_units\":%zu,"
                  "\"simd_units\":%zu,\"stripe_steps\":%llu,"
                  "\"stripe_fallbacks\":%llu,",
                  static_cast<unsigned long long>(q.id),
                  JsonEscape(q.query_class).c_str(),
                  JsonEscape(q.engine).c_str(), q.exact ? "true" : "false",
                  q.num_chains, static_cast<unsigned long long>(q.ticks),
                  static_cast<unsigned long long>(q.errors),
                  static_cast<unsigned long long>(q.kernel_hits),
                  static_cast<unsigned long long>(q.kernel_misses),
                  q.shared_units, q.simd_units,
                  static_cast<unsigned long long>(q.stripe_steps),
                  static_cast<unsigned long long>(q.stripe_fallbacks));
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "\"bytes_resident\":%zu,\"resident_units\":%zu,"
                  "\"stub_units\":%zu,\"spilled_units\":%zu,"
                  "\"promotions\":%llu,\"spills\":%llu,"
                  "\"rehydrations\":%llu,",
                  q.bytes_resident, q.resident_units, q.stub_units,
                  q.spilled_units,
                  static_cast<unsigned long long>(q.promotions),
                  static_cast<unsigned long long>(q.spills),
                  static_cast<unsigned long long>(q.rehydrations));
    out += buf;
    out += "\"text\":\"" + JsonEscape(q.text) + "\",";
    out += "\"last_error\":\"" + JsonEscape(q.last_error) + "\"}";
  }
  out += "],";
  AppendJsonLatency(&out, "tick_latency", tick_latency);
  out += "}";
  return out;
}

}  // namespace lahar
