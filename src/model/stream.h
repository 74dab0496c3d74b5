// Probabilistic event streams (Section 2.3).
//
// A stream is the sequence of probabilistic events for one (type, key) pair
// over the timeline 1..T. Timesteps where the key is missing are padded with
// certain-bottom. Two flavours exist:
//
//  * Independent streams (the real-time scenario): one marginal distribution
//    per timestep, independent across time.
//  * Markovian streams (the archived scenario): an initial marginal plus one
//    conditional probability table (CPT) per timestep,
//    E(t)(d', d) = P[e(t+1) = d' | e(t) = d], exactly the relation encoding
//    E(ID, T, A', A, P) of Fig. 3(d).
//
// The value-attribute domain of a stream is interned into dense indices;
// index 0 is always bottom (the event did not occur).
#ifndef LAHAR_MODEL_STREAM_H_
#define LAHAR_MODEL_STREAM_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "common/serial.h"
#include "common/status.h"
#include "model/event.h"
#include "model/value.h"

namespace lahar {

/// Serializes a value tuple (per value: kind byte + 64-bit payload).
void WriteValueTuple(const ValueTuple& t, serial::Writer* w);
Status ReadValueTuple(serial::Reader* r, ValueTuple* out);

/// Dense index into a stream's value-tuple domain; 0 is bottom.
using DomainIndex = uint32_t;

/// Index 0 of every stream domain: the event did not occur.
inline constexpr DomainIndex kBottom = 0;

/// \brief One probabilistic event stream: (type, key) over timeline 1..T.
class Stream {
 public:
  /// Creates an empty stream. For Markovian streams, call SetInitial and
  /// SetCpt for t = 1..T-1, then FinalizeMarkov(); for independent streams,
  /// call SetMarginal for each t.
  Stream(SymbolId type, ValueTuple key, size_t num_value_attrs,
         Timestamp horizon, bool markovian);

  SymbolId type() const { return type_; }
  const ValueTuple& key() const { return key_; }
  size_t num_value_attrs() const { return num_value_attrs_; }
  Timestamp horizon() const { return horizon_; }
  bool markovian() const { return markovian_; }

  /// Interns a value tuple into the domain, returning its dense index.
  /// The tuple must have num_value_attrs() entries.
  DomainIndex InternTuple(const ValueTuple& values);

  /// Looks up a tuple; returns kNotFound if absent from the domain.
  DomainIndex LookupTuple(const ValueTuple& values) const;
  static constexpr DomainIndex kNotFound = UINT32_MAX;

  /// Domain size D (bottom plus concrete tuples).
  size_t domain_size() const { return domain_.size(); }

  /// Value tuple for a domain index; index 0 (bottom) yields an empty tuple.
  const ValueTuple& TupleOf(DomainIndex d) const { return domain_[d]; }

  /// Sets the marginal at timestep t (independent streams). `dist` has one
  /// entry per domain index and must sum to 1.
  Status SetMarginal(Timestamp t, std::vector<double> dist);

  /// Sets the initial marginal (Markovian streams), i.e. the distribution at
  /// t = 1.
  Status SetInitial(std::vector<double> dist);

  /// Sets the CPT governing the transition from timestep t to t+1
  /// (Markovian streams): cpt.At(d, d') = P[e(t+1) = d' | e(t) = d].
  /// Rows must sum to 1. Valid t: 1..horizon-1.
  Status SetCpt(Timestamp t, Matrix cpt);

  /// Chains the initial marginal through the CPTs to populate the per-step
  /// marginals. Must be called after all SetCpt calls on Markovian streams.
  Status FinalizeMarkov();

  /// Prunes CPT entries below `epsilon` and renormalizes rows — the storage
  /// optimization Section 4.3.2 alludes to (the paper cut its CPT relation
  /// ~26x "without a noticeable degradation in quality"). Marginals are
  /// re-chained afterwards. Returns the number of entries dropped via the
  /// out-parameters (either may be null).
  Status PruneCpts(double epsilon, size_t* entries_before = nullptr,
                   size_t* entries_after = nullptr);

  /// Appends one timestep to an independent stream (extends the horizon).
  /// The domain must already be fully interned.
  Status AppendMarginal(std::vector<double> dist);

  /// Appends the initial marginal (timestep 1) to an *empty* Markovian
  /// stream, giving it horizon 1 — the streaming counterpart of
  /// SetInitial + FinalizeMarkov for a stream declared with horizon 0.
  /// Subsequent timesteps arrive via AppendMarkovStep.
  Status AppendInitial(std::vector<double> dist);

  /// Appends one timestep to a Markovian stream: `cpt` governs the
  /// transition from the current last timestep to the new one; the new
  /// marginal is chained automatically. Requires a set initial marginal.
  Status AppendMarkovStep(Matrix cpt);

  /// Marginal distribution at timestep t (1..horizon). Entries beyond the
  /// stored vector's size are zero.
  const std::vector<double>& MarginalAt(Timestamp t) const;

  /// CPT for the transition t -> t+1. Requires markovian() and 1<=t<horizon.
  const Matrix& CptAt(Timestamp t) const;

  /// Content digest (dual word-wise FNV over entry bits + dims) of
  /// CptAt(t), computed on first read and kept, so later reads are O(1);
  /// concurrent readers are safe. Engines use it to validate shared
  /// transition-row reuse per tick without re-reading slice bytes
  /// (automaton/rows.h); equal digests on structurally equal streams mean
  /// bit-equal slices. Same preconditions as CptAt.
  const std::array<uint64_t, 2>& CptDigestAt(Timestamp t) const;

  /// The entries of one CPT that are not `<= 0`, row by row in increasing
  /// column order (compressed sparse rows): row d holds cols/probs
  /// [row_begin[d], row_begin[d + 1]). Successor walks skip exactly the
  /// entries `<= 0`, so walking a row here visits the same successors in
  /// the same order as scanning the dense row, reading only the nonzeros.
  struct SparseCpt {
    std::vector<uint32_t> row_begin;  // rows + 1 offsets
    std::vector<uint32_t> cols;
    std::vector<double> probs;
  };
  /// CptAt(t) as compressed sparse rows, built on first read like
  /// CptDigestAt. Same preconditions as CptAt.
  const SparseCpt& SparseCptAt(Timestamp t) const;

  /// One Markov step checked by PrepareMarkovStep.
  struct PreparedStep {
    Matrix cpt;
    std::vector<double> marginal;  // at the new horizon
  };
  /// The first half of AppendMarkovStep: runs its checks and chains the
  /// new marginal without touching the stream. CommitMarkovStep appends
  /// the result; no other change to the stream may come in between.
  Result<PreparedStep> PrepareMarkovStep(Matrix cpt) const;
  void CommitMarkovStep(PreparedStep step);

  /// Marginal probability of domain index d at time t (0 if out of range).
  double ProbAt(Timestamp t, DomainIndex d) const;

  /// The probabilistic event at timestep t, in the Section-2.3 form.
  ProbabilisticEvent EventAt(Timestamp t) const;

  /// Samples a full trajectory (values[1..horizon]; index 0 is unused).
  std::vector<DomainIndex> SampleTrajectory(Rng* rng) const;

  /// Probability of a trajectory under Eq. (1). `traj[t]` for t=1..horizon.
  double TrajectoryProb(const std::vector<DomainIndex>& traj) const;

  /// Checks all stored distributions.
  Status Validate() const;

  /// Field-exact binary snapshot for checkpointing. Unlike the Append/Set
  /// API, this preserves unset (certain-bottom) timesteps and marginals
  /// recorded before later domain growth exactly as stored, so LoadFrom
  /// reproduces the stream state bit-for-bit.
  void SaveTo(serial::Writer* w) const;
  static Result<Stream> LoadFrom(serial::Reader* r);

 private:
  SymbolId type_;
  ValueTuple key_;
  size_t num_value_attrs_;
  Timestamp horizon_;
  bool markovian_;

  std::vector<ValueTuple> domain_;  // [0] = bottom (empty tuple)
  std::unordered_map<ValueTuple, DomainIndex, ValueTupleHash> domain_index_;

  // marginals_[t] for t = 1..horizon (index 0 unused).
  std::vector<std::vector<double>> marginals_;

  // Views derived from the CPT slices, one slot per slice, each view built
  // by its first reader. Readers may race (engines step chains on several
  // threads), so a slot builds each view once under its mutex and
  // publishes it through an atomic flag. Writers of a slice (Set, Prune)
  // reset its slot and run with no reader in flight, like every other
  // stream mutation. A copy starts with unbuilt slots; nothing here is
  // serialized.
  class CptViews {
   public:
    CptViews() = default;
    CptViews(const CptViews& o) { Resize(o.slots_.size()); }
    CptViews& operator=(const CptViews& o) {
      slots_.clear();
      Resize(o.slots_.size());
      return *this;
    }
    CptViews(CptViews&&) = default;
    CptViews& operator=(CptViews&&) = default;

    void Resize(size_t n);
    void Reset(size_t t) { slots_[t] = std::make_unique<Slot>(); }
    const std::array<uint64_t, 2>& Digest(size_t t, const Matrix& cpt) const;
    const SparseCpt& Sparse(size_t t, const Matrix& cpt) const;

   private:
    struct Slot {
      std::mutex mu;
      std::atomic<bool> has_digest{false};
      std::atomic<bool> has_sparse{false};
      std::array<uint64_t, 2> digest{};
      SparseCpt sparse;
    };
    std::vector<std::unique_ptr<Slot>> slots_;
  };
  static std::array<uint64_t, 2> DigestCpt(const Matrix& cpt);
  static SparseCpt SparsifyCpt(const Matrix& cpt);

  // cpts_[t] is the transition t -> t+1, for t = 1..horizon-1 (Markovian).
  std::vector<Matrix> cpts_;
  CptViews cpt_views_;  // one slot per cpts_ entry
};

}  // namespace lahar

#endif  // LAHAR_MODEL_STREAM_H_
