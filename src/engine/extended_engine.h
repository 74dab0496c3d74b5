// Extended Regular Queries (Section 3.2): one regular Markov chain per
// grounding of the shared variables; the groundings use disjoint tuples, so
// their truths are independent and combine as 1 - prod(1 - p_i).
//
// Space is O(m) in the number of distinct keys m, independent of stream
// length (Theorem 3.7), and each timestep costs O(m) chain steps.
//
// Chain lifecycle (docs/PERF.md "Chain lifecycle"): with
// ChainOptions::lazy_materialize / spill_cold_chains set, a binding is one
// of three residency states —
//   * resident: a live RegularChain (the only state without the knobs);
//   * stub:     ~16 bytes (NFA mask + idle counter). Valid while every
//               participating stream is "quiet" (contributes no symbols and
//               multiplies probabilities by exactly 1.0), in which case the
//               real chain's state is the closed-form single entry
//               {mask, hidden=0, p=1.0} with mask evolving by
//               Transition(mask, 0). Promoted to resident on first
//               evidence, bit-identically by construction.
//   * spilled:  the chain's live distribution parked as checkpoint-encoded
//               entries in a compact side arena. Only entered when every
//               state-set mask is a fixed point of the empty-input
//               transition, so quiet ticks are bitwise no-ops; rehydrated
//               transparently on the next loud tick.
// All three serialize into the same per-chain checkpoint encoding, so
// engine snapshots are byte-identical to the always-materialized reference.
#ifndef LAHAR_ENGINE_EXTENDED_ENGINE_H_
#define LAHAR_ENGINE_EXTENDED_ENGINE_H_

#include <memory>
#include <vector>

#include "engine/regular_engine.h"

namespace lahar {

class SharedSubChain;  // engine/session.h

/// \brief Engine for Extended Regular (and Regular) queries.
class ExtendedRegularEngine {
 public:
  /// Builds one chain per grounding of the shared variables. The query must
  /// be (extended) regular; classification is not re-checked here.
  ///
  /// All groundings share one NFA structure, so their compiled kernels
  /// dedupe through a cache (options.kernel_cache, or a Create-local one):
  /// the m per-key chains hold one shared CompiledKernel. The compiled
  /// chains' state vectors are additionally packed into one engine-owned
  /// contiguous arena ([chain0 cur | chain0 nxt | chain1 cur | ...]) so a
  /// timestep walks memory linearly instead of m scattered heap blocks.
  static Result<ExtendedRegularEngine> Create(const NormalizedQuery& q,
                                              const EventDatabase& db,
                                              const ChainOptions& options = {});

  /// Advances every chain one timestep; returns P[q@t] at the new time.
  double Step();

  /// P[q@t] for t = 1..horizon (index 0 unused).
  std::vector<double> Run();

  /// Per-grounding time series: which binding of the shared variables
  /// satisfies the query, and when. `series[i].probs[t]` is P[q{binding_i}
  /// satisfied at t]; the combined Run() answer is their independent union.
  struct BindingSeries {
    Binding binding;
    std::vector<double> probs;
  };
  std::vector<BindingSeries> RunPerBinding();

  Timestamp time() const { return t_; }
  Timestamp horizon() const { return horizon_; }
  size_t num_chains() const { return chains_.size(); }

  /// Per-grounding probabilities at the current time (diagnostics).
  const std::vector<double>& chain_probs() const { return chain_probs_; }
  /// The grounding behind chain i.
  const Binding& binding(size_t i) const { return bindings_[i]; }
  /// The live chain of grounding i (for seeding shared units; when the
  /// chain is delegated this is its frozen pre-delegation state). Requires
  /// a materialized chain — stub/spilled bindings hold none.
  const RegularChain& chain(size_t i) const { return *chains_[i]; }

  /// Delegates chain `i` to a shared sub-chain: the engine stops stepping
  /// its private copy and reads per-tick probabilities from the unit's
  /// frontier. Refused (returns false) when either side has a latched
  /// error or the unit's clock is not at this engine's time(). The private
  /// chain is left frozen as a fallback until undelegation copies the
  /// shared state back.
  bool DelegateChain(size_t i, std::shared_ptr<SharedSubChain> unit);
  /// Reclaims chain `i`: copies the shared unit's live state back into the
  /// private chain (re-owning storage) and resumes local stepping.
  void UndelegateChain(size_t i);
  bool IsDelegated(size_t i) const {
    return i < delegates_.size() && delegates_[i] != nullptr;
  }
  size_t num_delegated() const { return num_delegated_; }

  /// Relative per-step cost of chain i (runtime session placement);
  /// delegated chains cost one frontier read, stubs and spilled chains one
  /// quiet check.
  size_t ChainCost(size_t i) const {
    if (IsDelegated(i)) return 1;
    if (lifecycle_ && residency_[i] != kResident) return 1;
    return chains_[i]->StepCost();
  }
  /// First error latched by any chain (e.g. a failed symbol-table refresh
  /// after mid-stream domain growth); OK in normal operation.
  Status ChainStatus() const;
  /// Number of chains running on a compiled kernel (vs. the map path).
  size_t num_compiled() const {
    size_t n = 0;
    for (const auto& c : chains_) n += (c != nullptr && c->compiled()) ? 1 : 0;
    return n;
  }
  /// Number of chains on the vectorized dense-row step path.
  size_t num_simd() const {
    size_t n = 0;
    for (const auto& c : chains_) n += (c != nullptr && c->simd()) ? 1 : 0;
    return n;
  }
  /// Number of chains packed into lane-interleaved stripes (stepped
  /// simd::kLanes at a time when eligible).
  size_t num_striped() const {
    size_t n = 0;
    for (uint32_t w : stripe_width_) {
      if (w > 1) n += w;
    }
    return n;
  }
  /// Whole-stripe steps taken / stripes that fell back to per-chain steps
  /// this run (a fallback still computes bit-identical results).
  uint64_t stripe_steps() const { return stripe_steps_; }
  uint64_t stripe_fallbacks() const { return stripe_fallbacks_; }
  /// Doubles in the shared SoA state arena (0 when unused).
  size_t arena_size() const { return arena_.size(); }

  // --- chain lifecycle (lazy materialization / cold spill) ----------------
  /// True when this engine runs the stub/resident/spilled lifecycle
  /// (ChainOptions::lazy_materialize or spill_cold_chains).
  bool lifecycle_enabled() const { return lifecycle_; }
  /// Registered bindings currently holding a live chain.
  size_t num_resident() const;
  /// Registered bindings currently held as closed-form stubs.
  size_t num_stub() const;
  /// Registered bindings currently spilled to the side arena.
  size_t num_spilled() const;
  /// Lifetime lifecycle transitions.
  uint64_t promotions() const { return promotions_; }
  uint64_t spills() const { return spills_; }
  uint64_t rehydrations() const { return rehydrations_; }

  /// Steady-state memory accounting for the bytes-per-chain model
  /// (docs/PERF.md): the SoA arena, per-chain owned heap (state buffers,
  /// scratch, local rows), pooled transition rows counted once per
  /// distinct class across all chains, and the lifecycle side arenas
  /// (stub tables + spilled entries).
  struct MemoryFootprint {
    size_t arena_bytes = 0;
    size_t owned_bytes = 0;
    size_t shared_row_bytes = 0;
    size_t lifecycle_bytes = 0;  ///< stub tables + spilled side arena
    size_t bytes() const {
      return arena_bytes + owned_bytes + shared_row_bytes + lifecycle_bytes;
    }
  };
  MemoryFootprint Footprint() const;

  /// Serializes the clock, chain probabilities, and every chain's state
  /// distribution (checkpointing). LoadState restores into an engine built
  /// by the same query over an identical database snapshot — chain count
  /// and per-chain hidden-slot layout must match — after which stepping
  /// continues bit-identically.
  void SaveState(serial::Writer* w) const;
  Status LoadState(serial::Reader* r);

 private:
  // Residency of a binding (lifecycle mode; everything is kResident
  // otherwise). Stored as uint8_t so 1M bindings cost 1MB.
  static constexpr uint8_t kResident = 0;
  static constexpr uint8_t kStub = 1;
  static constexpr uint8_t kSpilled = 2;

  // One participating stream of one binding, flattened: enough to decide
  // per tick whether the stream is quiet (contributes no symbols, scales
  // probabilities by exactly 1.0) without a live chain.
  struct LifecyclePart {
    StreamId stream = 0;
    bool markovian = false;
    // Independent streams: bit d of trigger_words_[trigger_begin + d/64]
    // set means domain value d produces a symbol (creation-time masks;
    // existing values never change masks under domain growth). Mass on a
    // value >= trigger_bits (interned after creation) conservatively
    // promotes.
    uint32_t trigger_begin = 0;
    uint32_t trigger_bits = 0;
  };

  // A cold chain's live distribution, parked off the step path. Entries
  // keep the raw (mask, hidden) keys plus the creation-time radices, so
  // checkpoint bytes can be re-emitted against *current* domain sizes
  // exactly as the live chain's SaveState would.
  struct SpilledChain {
    uint8_t track = 0;
    std::vector<uint64_t> radices;         // per Markovian slot
    std::vector<StreamId> markov_streams;  // per slot, for domain lookups
    struct Entry {
      StateMask mask = 0;
      uint64_t hidden = 0;
      double p = 0.0;
    };
    std::vector<Entry> entries;  // canonical (mask, hidden) order
    size_t bytes() const {
      return sizeof(SpilledChain) + radices.capacity() * sizeof(uint64_t) +
             markov_streams.capacity() * sizeof(StreamId) +
             entries.capacity() * sizeof(Entry);
    }
  };

  // True when every participating stream of binding i is quiet at `next`:
  // stepping is then the empty-input transition with all probability
  // multipliers exactly 1.0 (see BuildIndependentMaskDist /
  // EnumerateSuccessors in regular_engine.cc).
  bool QuietAt(size_t i, Timestamp next) const;
  // Appends the next binding's lifecycle tables from its symbol table.
  void AppendLifecycleParts(const SymbolTable& table);
  // Materializes binding i from its stub.
  void PromoteChain(size_t i);
  // Rebuilds binding i's chain from its spilled entries.
  void RehydrateChain(size_t i);
  // Freezes resident binding i when its state is a fixed point of the
  // empty-input transition; downgrades all the way to a stub when the
  // state is exactly the closed form. No-op when ineligible.
  void TrySpill(size_t i);
  // Serializes binding i's snapshot — same bytes as a live chain's
  // SaveState — from whichever residency it is in.
  void SaveChainState(size_t i, serial::Writer* w) const;
  // Restores binding i from one chain snapshot inside an engine snapshot
  // taken at time `t`, classifying it back into the cheapest residency that
  // reproduces it exactly (stub, spilled, or materialized).
  Status RestoreChainState(size_t i, serial::Reader* r, uint32_t t);
  // Builds a fresh chain for binding i (promotion/rehydration/restore).
  Result<RegularChain> BuildChain(size_t i) const;
  void LatchLifecycleError(const Status& s);

  // Heap-held per binding so non-resident bindings cost a null pointer, not
  // a sizeof(RegularChain) slot (~half a KB of empty vectors): the slot is
  // null exactly while residency is kStub/kSpilled.
  std::vector<std::unique_ptr<RegularChain>> chains_;
  std::vector<Binding> bindings_;
  std::vector<double> chain_probs_;
  // Sized lazily on first delegation; delegates_[i] != null means chain i
  // reads the shared frontier instead of stepping.
  std::vector<std::shared_ptr<SharedSubChain>> delegates_;
  size_t num_delegated_ = 0;
  // Contiguous cur|nxt state buffers of all compiled chains (SoA batching).
  // Chains hold raw pointers into this vector; the engine is movable (the
  // heap buffer survives a move) but each chain's copy ctor re-owns its
  // slice, so copied engines simply stop using the arena.
  std::vector<double> arena_;
  // Stripe layout over chains_: stripe_width_[i] is simd::kLanes at a
  // stripe leader, 0 at its member lanes (the leader steps them), and 1
  // for chains stepped alone. Empty when no arena was packed.
  std::vector<uint32_t> stripe_width_;
  uint64_t stripe_steps_ = 0;
  uint64_t stripe_fallbacks_ = 0;
  uint64_t promotions_ = 0;
  uint64_t spills_ = 0;
  uint64_t rehydrations_ = 0;
  // First error from a promote/rehydrate (ChainStatus()).
  Status lifecycle_error_;

  // --- lifecycle state (empty unless lifecycle_) --------------------------
  bool lifecycle_ = false;
  bool lazy_ = false;
  bool spill_ = false;
  uint32_t cold_after_ = 64;
  // Rebuilding chains mid-run needs the query, database, and options that
  // built the engine; the caches the options point at must outlive every
  // promotion, so the engine owns fallbacks when the caller passed none.
  NormalizedQuery query_;
  const EventDatabase* db_ = nullptr;
  ChainOptions chain_options_;
  std::shared_ptr<KernelCache> owned_cache_;
  std::shared_ptr<TransitionRowPool> owned_rows_;
  std::unique_ptr<StreamKeyIndex> stream_index_;
  // Memoization-free automaton copy for stub evolution: Transition() is
  // then pure/const. One copy serves every binding (groundings share the
  // NFA structure).
  std::unique_ptr<QueryNfa> stub_nfa_;
  std::vector<uint8_t> residency_;
  std::vector<StateMask> stub_mask_;
  std::vector<uint32_t> idle_ticks_;
  std::vector<uint32_t> part_begin_;  // [n + 1] offsets into parts_
  std::vector<LifecyclePart> parts_;
  std::vector<uint64_t> trigger_words_;
  std::vector<std::unique_ptr<SpilledChain>> spilled_;

  Timestamp t_ = 0;
  Timestamp horizon_ = 0;
};

}  // namespace lahar

#endif  // LAHAR_ENGINE_EXTENDED_ENGINE_H_
