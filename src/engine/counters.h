// Per-session counters: what one standing query's session reports to the
// runtime's stats (QuerySession::Counters, runtime/stats.h). Plain structs
// with no engine dependencies, so the runtime's stats header can carry
// them without pulling in the engines.
//
// Every stats struct names its fields once, in a static Fields(f) list that
// calls f(key, &Struct::member) per field. The stats renderers (text, JSON,
// and the net kStats reply) and the field-wise sum below all walk that list.
#ifndef LAHAR_ENGINE_COUNTERS_H_
#define LAHAR_ENGINE_COUNTERS_H_

#include <cstddef>
#include <cstdint>

namespace lahar {

/// \brief Cache/memo observability counters for one safe-plan evaluator
/// tree (aggregated over every node; see SafePlanEngine::MemoStats).
struct SafeMemoStats {
  size_t memo_entries = 0;     ///< live (ts, tf) interval memo entries
  uint64_t memo_hits = 0;      ///< interval memo hits
  uint64_t memo_misses = 0;    ///< interval memo misses (computed fresh)
  uint64_t memo_evictions = 0; ///< entries overwritten by the bounded memo
  size_t rows_live = 0;        ///< live reg-leaf interval rows
  uint64_t row_evictions = 0;  ///< LRU reg-row evictions
  uint64_t row_rebuilds = 0;   ///< evicted rows rebuilt from a keyframe
};

/// \brief Counters of one session's units. Sessions report zero for what
/// they do not have: the memo counters are the safe path's, the rest
/// belong to streaming sessions. Sizes are snapshots; the transition
/// counters are lifetime totals.
struct SessionCounters : SafeMemoStats {
  // --- chain lifecycle (docs/PERF.md "Chain lifecycle") -------------------
  /// Session memory footprint in bytes (resident chains + stubs + spill
  /// arena). Resident + stub + spilled partitions the session's units for
  /// lifecycle sessions; every unit is resident otherwise.
  size_t bytes_resident = 0;
  size_t resident_units = 0;  ///< units holding a materialized chain
  size_t stub_units = 0;      ///< lazy stubs never promoted (~16 B each)
  size_t spilled_units = 0;   ///< cold chains in the spill arena
  uint64_t promotions = 0;    ///< stub -> resident transitions
  uint64_t spills = 0;        ///< resident -> spilled/stub transitions
  uint64_t rehydrations = 0;  ///< spilled -> resident transitions
  // --- sharing and SIMD (docs/SHARING.md, docs/PERF.md) -------------------
  /// Units delegated to cross-query shared sub-chains (stepped once per
  /// tick for all their readers).
  size_t shared_units = 0;
  /// Units stepping on the vectorized SoA kernel path.
  size_t simd_units = 0;
  /// Whole-stripe steps taken / stripes demoted to per-unit steps.
  /// Fallbacks are data-dependent: the executor steps every session whole,
  /// so placement changes must not grow them.
  uint64_t stripe_steps = 0;
  uint64_t stripe_fallbacks = 0;

  template <typename F>
  static void Fields(F&& f) {
    f("memo_entries", &SessionCounters::memo_entries);
    f("memo_hits", &SessionCounters::memo_hits);
    f("memo_misses", &SessionCounters::memo_misses);
    f("memo_evictions", &SessionCounters::memo_evictions);
    f("rows_live", &SessionCounters::rows_live);
    f("row_evictions", &SessionCounters::row_evictions);
    f("row_rebuilds", &SessionCounters::row_rebuilds);
    f("bytes_resident", &SessionCounters::bytes_resident);
    f("resident_units", &SessionCounters::resident_units);
    f("stub_units", &SessionCounters::stub_units);
    f("spilled_units", &SessionCounters::spilled_units);
    f("promotions", &SessionCounters::promotions);
    f("spills", &SessionCounters::spills);
    f("rehydrations", &SessionCounters::rehydrations);
    f("shared_units", &SessionCounters::shared_units);
    f("simd_units", &SessionCounters::simd_units);
    f("stripe_steps", &SessionCounters::stripe_steps);
    f("stripe_fallbacks", &SessionCounters::stripe_fallbacks);
  }

  /// Field-wise sum (RuntimeStats totals over every session).
  SessionCounters& operator+=(const SessionCounters& o) {
    Fields([&](const char*, auto member) { this->*member += o.*member; });
    return *this;
  }
};

}  // namespace lahar

#endif  // LAHAR_ENGINE_COUNTERS_H_
