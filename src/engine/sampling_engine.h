// Naive random sampling (Section 3.5): estimate mu(q@t) by running the
// query over n sampled possible worlds. Works for ANY query — including the
// provably #P-hard ones of Section 3.4 — with the (epsilon, delta) guarantee
// of Prop. 3.20: n = ceil(ln(2/delta) / (2 epsilon^2)) samples give
// P[|estimate - truth| <= epsilon] >= 1 - delta at each timestep (Hoeffding).
//
// Two execution paths:
//  * Queries whose groundings are regular run n parallel NFAs over sampled
//    symbol streams, incrementally per timestep (the paper's "n copies of
//    the query" with bitvector-style batched state).
//  * Everything else (safe and unsafe queries) samples whole worlds and
//    invokes the reference evaluator per world — slower, but fully general.
#ifndef LAHAR_ENGINE_SAMPLING_ENGINE_H_
#define LAHAR_ENGINE_SAMPLING_ENGINE_H_

#include <memory>
#include <vector>

#include "automaton/nfa.h"
#include "engine/reference.h"
#include "query/normalize.h"

namespace lahar {

/// Options for the sampling engine.
struct SamplingOptions {
  double epsilon = 0.1;  ///< additive error bound
  double delta = 0.1;    ///< failure probability
  uint64_t seed = 0xC0FFEE;
  /// Overrides the Hoeffding sample count when non-zero.
  size_t num_samples = 0;
};

/// Samples required for the (epsilon, delta) guarantee.
size_t HoeffdingSamples(double epsilon, double delta);

/// \brief Monte-Carlo engine over possible worlds.
class SamplingEngine {
 public:
  /// Builds the engine; picks the NFA path when every grounding of the
  /// query is regular, the reference-evaluator path otherwise.
  static Result<SamplingEngine> Create(QueryPtr q, const EventDatabase& db,
                                       const SamplingOptions& options = {});

  /// Estimated mu(q@t) for t = 1..horizon (index 0 unused).
  Result<std::vector<double>> Run();

  /// Advances one timestep and returns the estimate at the new time.
  /// Regular groundings use the incremental NFA path; everything else
  /// extends per-sample world prefixes and re-evaluates the reference
  /// semantics on each — O(t * |W|) per tick, but it hosts even unsafe
  /// queries as standing queries. The tick is consumed even when it fails
  /// (a symbol-table refresh after domain growth, or a sample's
  /// evaluation), so time() stays in step with the caller's clock; the
  /// refresh error wins over a sample error, which wins over the estimate.
  Result<double> Step();

  bool incremental() const { return !chains_.empty(); }
  size_t num_samples() const { return num_samples_; }
  Timestamp time() const { return t_; }
  Timestamp horizon() const { return horizon_; }

 private:
  // Extends the NFA path's shared symbol tables over domain values
  // interned since the last tick. No-op on the general path.
  Status RefreshSymbols();
  // One tick of one sample; `next` is t_ + 1. Returns whether the sample
  // satisfies q at `next`.
  bool StepNfaSample(size_t i, Timestamp next, std::vector<double>* row);
  Result<bool> StepWorldSample(size_t i, Timestamp next);
  // One grounded regular query: its automaton, symbol table, and the
  // per-sample NFA state masks.
  struct GroundedChain {
    std::shared_ptr<const QueryNfa> nfa;
    std::shared_ptr<const SymbolTable> symbols;
    std::vector<StateMask> states;  // per sample
  };

  QueryPtr query_;
  const EventDatabase* db_ = nullptr;
  size_t num_samples_ = 0;
  uint64_t seed_ = 0;
  Timestamp horizon_ = 0;
  Timestamp t_ = 0;

  std::vector<GroundedChain> chains_;  // NFA path (empty => general path)
  // Streams sampled per timestep (union over chains); each chain maps its
  // participant positions into these slots so a shared stream is sampled
  // exactly once per sample per timestep.
  std::vector<StreamId> slot_streams_;
  std::vector<std::vector<size_t>> chain_slots_;
  std::vector<DomainIndex> values_;  // [sample * num_slots + slot]
  std::vector<Rng> sample_rngs_;     // one generator per sample
  // General path only: per-sample sampled world prefixes, extended lazily
  // as streams grow (empty until the first Step).
  std::vector<World> worlds_;
};

}  // namespace lahar

#endif  // LAHAR_ENGINE_SAMPLING_ENGINE_H_
