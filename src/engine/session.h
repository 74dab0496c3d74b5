// The engine-agnostic standing-query abstraction: one QuerySession per
// registered query, regardless of its class. Every evaluation path —
// the streaming kernels of Theorems 3.3/3.7, the safe-plan algebra of
// Section 3.3, and the Monte-Carlo sampler of Section 3.5 — implements the
// same incremental protocol, so the runtime (src/runtime/) multiplexes all
// four query classes through a single serving path:
//
//   class            session              per-tick cost   answers
//   Regular          StreamingSession     O(1)            exact
//   ExtendedRegular  StreamingSession     O(m)            exact
//   Safe             SafeQuerySession     O(live window)  exact
//   Unsafe           SamplingSession      O(T * |W|)      (eps, delta)
//
// The protocol is Advance(): consume one timestep, return P[q@t] at the new
// time. A session is the unit of parallelism: the windowed executor
// (runtime/executor.h) places whole sessions on workers by StepCost() and
// never steps one session from two threads. Sessions advance out of
// lockstep — one worker may drive its sessions through all W ticks of a
// window while another is still on the window's first tick — so a session
// must not assume all sessions sit at the same tick while a window is in
// flight (all of them do again by the time the window's results are
// published).
#ifndef LAHAR_ENGINE_SESSION_H_
#define LAHAR_ENGINE_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "analysis/prepared.h"
#include "common/serial.h"
#include "engine/counters.h"
#include "engine/lahar.h"
#include "engine/regular_engine.h"
#include "engine/safe_engine.h"

namespace lahar {

/// \brief A cross-session shared evaluation unit (docs/SHARING.md): one
/// RegularChain stepped once per tick on behalf of every structurally
/// identical grounded chain (equal canonical key) across standing queries.
///
/// The runtime steps the unit through AdvanceTo exactly once per window,
/// recording each tick's accept probability in a bounded frontier ring;
/// delegated sessions then read ProbAt(t) instead of stepping their own
/// copy. Chains are cloned *from* a live member at creation and copied
/// *back* at undelegation, so membership churn never loses state. Not
/// internally synchronized: AdvanceTo runs on the runtime coordinator
/// before worker fan-out, and workers only call the const readers.
class SharedSubChain {
 public:
  /// `frontier_history` bounds how many recent ticks ProbAt can answer; it
  /// must exceed the deepest read lag (the executor sizes it to the window
  /// cap plus slack).
  SharedSubChain(std::string key, RegularChain chain,
                 size_t frontier_history);

  const std::string& key() const { return key_; }
  Timestamp time() const { return chain_.time(); }

  /// Steps the chain up to timestep `to` (idempotent for to <= time()),
  /// recording per-tick probabilities in the frontier ring. Returns the
  /// number of steps executed.
  size_t AdvanceTo(Timestamp to);

  /// P[q@t] recorded by AdvanceTo; `t` must lie within the frontier
  /// history of time().
  double ProbAt(Timestamp t) const { return ring_[t % ring_.size()]; }

  const RegularChain& chain() const { return chain_; }
  /// Checkpoint restore loads directly into the chain, then calls
  /// ResyncFrontier to re-prime the current tick's ring entry.
  RegularChain* mutable_chain() { return &chain_; }
  void ResyncFrontier();

  /// Membership bookkeeping (maintained by the registry's sharing pool).
  size_t readers() const { return readers_; }
  void AddReader() { ++readers_; }
  void DropReader() { --readers_; }

  /// Cumulative steps executed by AdvanceTo.
  uint64_t steps() const { return steps_; }
  const Status& status() const { return chain_.status(); }

 private:
  std::string key_;
  RegularChain chain_;
  std::vector<double> ring_;
  size_t readers_ = 0;
  uint64_t steps_ = 0;
};

/// \brief Incremental evaluation session for one standing query.
class QuerySession {
 public:
  virtual ~QuerySession() = default;

  /// Consumes timestep time()+1 (which every participating stream must
  /// already cover via Append*, unless it has ended) and returns P[q@t] at
  /// the new time.
  virtual Result<double> Advance() = 0;

  /// The last consumed timestep (0 before the first Advance).
  virtual Timestamp time() const = 0;

  /// Number of independent units (stats): per-grounding chains for the
  /// streaming engines, Monte-Carlo samples for the sampling engine, and
  /// independent grounding groups (project children) for a safe plan.
  virtual size_t num_units() const = 0;

  /// Relative per-tick cost estimate; the executor places sessions on
  /// workers by it (longest processing time first).
  virtual size_t StepCost() const = 0;

  /// Counters of this session's units (stats): memory and chain
  /// lifecycle, safe-path memo, sharing and SIMD stripes, in one struct
  /// that RuntimeStats reports per query and sums across queries. Sessions
  /// without those layers keep this default: every unit resident, all
  /// other counters zero.
  virtual SessionCounters Counters() const {
    SessionCounters c;
    c.resident_units = num_units();
    return c;
  }

  QueryClass query_class() const { return query_class_; }
  EngineKind engine_kind() const { return engine_kind_; }
  /// False when answers carry the sampling engine's (eps, delta) guarantee
  /// instead of being exact.
  bool exact() const { return exact_; }

  /// True when the session serializes its state directly (SaveState /
  /// LoadState). Sessions without direct support are restored by replaying
  /// the database prefix instead — bit-identical either way (replay is the
  /// same catch-up path hot registration uses; the sampler's determinism
  /// comes from its fixed seed).
  virtual bool SupportsStateRestore() const { return false; }

  /// Serializes the session's evaluation state (checkpoint). Only valid
  /// when SupportsStateRestore(); the blob is opaque and versioned by the
  /// enclosing checkpoint, and must be loaded into a session created over
  /// an identical database snapshot by the same query text.
  virtual Status SaveState(serial::Writer* w) const {
    (void)w;
    return Status::Unimplemented("session does not serialize state");
  }

  /// Restores state written by SaveState on an equivalent session.
  virtual Status LoadState(serial::Reader* r) {
    (void)r;
    return Status::Unimplemented("session does not serialize state");
  }

  // --- Cross-session sharing hooks (docs/SHARING.md) ----------------------
  // The registry's sharing pool groups sessions whose units carry equal
  // canonical keys and swaps their private chains for one SharedSubChain.
  // Classes that decline sharing keep the no-op defaults.

  /// Units eligible for cross-session sharing (grounded chains with a
  /// canonical key); indices coincide with the session's unit indices.
  virtual size_t NumShareableUnits() const { return 0; }

  /// Canonical structural key of shareable unit `i` (see
  /// analysis/plan.h CanonicalQueryKey).
  virtual const std::string& ShareableUnitKey(size_t i) const;

  /// Clones unit `i`'s live chain into a fresh shared unit that other
  /// sessions with the same key can adopt. Null when the unit cannot seed
  /// one (latched error, already delegated).
  virtual std::shared_ptr<SharedSubChain> MakeSharedUnit(
      size_t i, size_t frontier_history) const {
    (void)i;
    (void)frontier_history;
    return nullptr;
  }

  /// Delegates unit `i` to `unit`: the session stops stepping its private
  /// chain and reads per-tick probabilities from the shared frontier.
  /// Passing null undelegates (the shared state is copied back into the
  /// private chain). Returns false when delegation is refused (time
  /// mismatch or latched error); the caller must then leave the session
  /// evaluating privately.
  virtual bool DelegateUnit(size_t i,
                            const std::shared_ptr<SharedSubChain>& unit) {
    (void)i;
    (void)unit;
    return false;
  }

 protected:
  QuerySession(QueryClass query_class, EngineKind engine_kind, bool exact)
      : query_class_(query_class), engine_kind_(engine_kind), exact_(exact) {}

 private:
  QueryClass query_class_;
  EngineKind engine_kind_;
  bool exact_;
};

/// Routes a prepared query to the cheapest session able to serve it:
/// Regular/ExtendedRegular -> StreamingSession, Safe -> SafeQuerySession
/// (falling back to sampling when no safe plan compiles and
/// options.allow_sampling_fallback is set), Unsafe -> SamplingSession (or
/// an UnsafeQuery error when fallback is disabled). Rejections carry the
/// query's class in the kQueryClassPayload status payload.
Result<std::unique_ptr<QuerySession>> CreateQuerySession(
    EventDatabase* db, const PreparedQuery& prepared,
    const LaharOptions& options = {});

}  // namespace lahar

#endif  // LAHAR_ENGINE_SESSION_H_
