// Evaluation of Safe Queries via the probabilistic stream algebra
// (Section 3.3): every plan node computes interval probabilities
// P[q[ts, tf]] — the probability that its subquery is satisfied at some
// timestep in [ts, tf] — and the operators combine them:
//
//   reg<V>(q)   — the Markov-chain algorithm extended to intervals with an
//                 absorbing "accepted" flag (the conditional decomposition
//                 on M(t) of Section 3.3.1).
//   seq(P, g)   — the precursor/witness decomposition, Eq. (3): condition
//                 on the latest g-event before ts (T_p) and the latest
//                 witness in [ts, tf] (T_w); q' must hold in [T_p, T_w - 1].
//   pi_-x(P)    — independent-project: 1 - prod over groundings of x.
//
// All tables are evaluated lazily and memoized. For *serving* (one
// AdvanceTo(t) per tick over an unbounded stream) the evaluator keeps
// per-tick cost and memory flat instead of growing with the horizon:
//
//  * seq nodes walk only the timesteps whose witness probability is
//    nonzero (a sorted index of the w[u] != 0 positions), skipping the
//    exact-zero factors the dense Eq. (3) loops would multiply by 1.0 —
//    the same IEEE operations in the same order, so answers stay
//    bit-identical to the reference loops (selectable via
//    SafePlanOptions::incremental);
//  * the (ts, tf) interval memo is a bounded direct-mapped cache and the
//    reg leaves keep a bounded LRU row arena over sparse chain keyframes
//    instead of one chain snapshot per timestep — evictions recompute
//    deterministically, so capacity never changes an answer;
//
// Preconditions (checked at Create): the streams matched by a seq operator's
// right-hand subgoal must be independent (non-Markovian) — the paper's
// Section 3.3 assumption. Markovian streams are still fine inside reg
// leaves, whose chain tracks the hidden state exactly.
#ifndef LAHAR_ENGINE_SAFE_ENGINE_H_
#define LAHAR_ENGINE_SAFE_ENGINE_H_

#include <memory>
#include <set>
#include <vector>

#include "analysis/plan.h"
#include "common/serial.h"
#include "engine/counters.h"
#include "engine/regular_engine.h"

namespace lahar {

/// \brief Engine for Safe Queries: compiles a safe plan and evaluates it.
class SafePlanEngine {
 public:
  /// Compiles the plan (Algorithm 1) and prepares evaluation. Fails with
  /// UnsafeQuery if no safe plan exists.
  static Result<SafePlanEngine> Create(const NormalizedQuery& q,
                                       const EventDatabase& db,
                                       const PlanOptions& options = {});

  /// mu(q@t) for t = 1..horizon (index 0 unused). Lazy tables mean the cost
  /// concentrates in the reg rows actually touched.
  Result<std::vector<double>> Run();

  /// P[q satisfied at some t in [ts, tf]] from the plan root. Requires a
  /// well-formed 1-based interval: ts >= 1 and ts <= tf (InvalidArgument
  /// otherwise — an empty or negative interval is a caller bug, not a
  /// zero-probability event).
  Result<double> IntervalProb(Timestamp ts, Timestamp tf);

  /// Extends the lazy evaluation structures to cover timesteps up to `t`
  /// after the database grew: reg-leaf rows and seq witness tables gain one
  /// column per appended timestep instead of being recomputed — the
  /// incremental mode behind SafeQuerySession (engine/session.h). Run()
  /// calls this implicitly, so batch results always cover the live horizon.
  Status ExtendTo(Timestamp t);

  /// Incremental per-tick evaluation: extends the tables to `t` and returns
  /// mu(q@t), bit-identical to probs[t] of a batch Run() over the same
  /// data (the tables extend monotonically in tf, so the arithmetic is the
  /// same either way).
  Result<double> AdvanceTo(Timestamp t);

  /// Independent grounding groups: the children of the plan's projection
  /// node, which touch disjoint streams by the safety precondition (1 for
  /// a plan without one). SafeQuerySession reports them as its units.
  size_t num_groundings() const { return num_groundings_; }

  /// Relative per-tick cost estimate, by which the runtime places the
  /// session on a worker: the grounding groups' summed cost (live rows,
  /// witness density and grounding fan-out, not just leaf count).
  size_t StepCost() const;

  /// Aggregated memo/row cache counters over the whole evaluator tree.
  SafeMemoStats MemoStats() const;

  /// Serializes the incremental evaluation state (frontier chains, witness
  /// tables, clock-free: the clock lives in SafeQuerySession). The blob
  /// must be loaded into an engine created over an identical database
  /// snapshot by the same query; bounded caches are not serialized — they
  /// refill bit-identically on demand.
  Status SaveState(serial::Writer* w) const;
  Status LoadState(serial::Reader* r);

  /// The compiled plan (for inspection / the query_classifier example).
  const SafePlanNode& plan() const { return *plan_; }

  // Implementation detail, public for the evaluator factory.
  class NodeEval;
  class RegEval;
  class SeqEval;
  class ProjectEval;

 private:
  // Grounding-group count and summed cost of a subplan (NodeEval).
  struct Groundings {
    size_t count = 1;
    size_t cost = 0;
  };

  const EventDatabase* db_ = nullptr;
  PlanOptions options_;
  SafePlanPtr plan_;
  std::shared_ptr<void> root_holder_;  // owns the eval tree
  NodeEval* root_ = nullptr;
  size_t num_groundings_ = 1;
};

}  // namespace lahar

#endif  // LAHAR_ENGINE_SAFE_ENGINE_H_
