#include "engine/extended_engine.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "analysis/bindings.h"
#include "automaton/simd.h"
#include "engine/session.h"

namespace lahar {

Result<ExtendedRegularEngine> ExtendedRegularEngine::Create(
    const NormalizedQuery& q, const EventDatabase& db,
    const ChainOptions& options) {
  ExtendedRegularEngine engine;
  engine.horizon_ = db.horizon();
  engine.lazy_ = options.lazy_materialize;
  engine.spill_ = options.spill_cold_chains;
  engine.lifecycle_ = engine.lazy_ || engine.spill_;
  engine.cold_after_ = std::max<uint32_t>(1, options.cold_after_ticks);
  std::set<SymbolId> shared = q.SharedVars();
  std::vector<Binding> bindings = EnumerateBindings(q, db, shared);
  // The groundings share one automaton structure, so without a caller cache
  // a Create-local one still collapses the m compilations into one; same
  // for the dense-row pool — chains hold their row class by shared_ptr, so
  // a Create-local pool dying here leaves the sharing intact. Lifecycle
  // engines rebuild chains mid-run, so they own heap fallbacks instead.
  KernelCache local_cache;
  TransitionRowPool local_rows;
  ChainOptions opts = options;
  if (engine.lifecycle_) {
    engine.query_ = q;
    engine.db_ = &db;
    if (opts.kernel_cache == nullptr) {
      engine.owned_cache_ = std::make_shared<KernelCache>();
      opts.kernel_cache = engine.owned_cache_.get();
    }
    if (opts.row_pool == nullptr) {
      engine.owned_rows_ = std::make_shared<TransitionRowPool>();
      opts.row_pool = engine.owned_rows_.get();
    }
    engine.stream_index_ = std::make_unique<StreamKeyIndex>(
        options.stream_index != nullptr ? *options.stream_index
                                        : StreamKeyIndex::Build(db));
    opts.stream_index = engine.stream_index_.get();
    LAHAR_ASSIGN_OR_RETURN(QueryNfa stub_nfa, QueryNfa::Build(q));
    // Memoization off keeps Transition() a pure function of its arguments:
    // stubs evolve through the one shared automaton without a cache.
    stub_nfa.set_memoization(false);
    engine.stub_nfa_ = std::make_unique<QueryNfa>(std::move(stub_nfa));
    engine.part_begin_.push_back(0);
  } else {
    if (opts.kernel_cache == nullptr) opts.kernel_cache = &local_cache;
    if (opts.row_pool == nullptr) opts.row_pool = &local_rows;
  }
  // Even without the lifecycle, grounded builds over many bindings pay
  // O(bindings x streams) in SymbolTable::Build full scans; one O(streams)
  // index drops that to O(bindings x subgoals).
  std::unique_ptr<StreamKeyIndex> scan_index;
  if (opts.stream_index == nullptr && bindings.size() >= 64) {
    scan_index = std::make_unique<StreamKeyIndex>(StreamKeyIndex::Build(db));
    opts.stream_index = scan_index.get();
  }
  for (Binding& b : bindings) {
    NormalizedQuery grounded = q.Substitute(b);
    if (engine.lazy_) {
      // Lazy materialization: register the binding as a ~16-byte stub; the
      // real chain is compiled on its first loud tick (PromoteChain), which
      // reproduces the skipped all-quiet prefix in closed form.
      LAHAR_ASSIGN_OR_RETURN(
          SymbolTable table,
          SymbolTable::Build(grounded, db, opts.stream_index));
      engine.AppendLifecycleParts(table);
      engine.chains_.push_back(nullptr);
      engine.residency_.push_back(kStub);
      engine.stub_mask_.push_back(engine.stub_nfa_->InitialStates());
      engine.bindings_.push_back(std::move(b));
      continue;
    }
    LAHAR_ASSIGN_OR_RETURN(RegularChain chain,
                           RegularChain::Create(grounded, db, opts));
    if (engine.lifecycle_) {
      engine.AppendLifecycleParts(*chain.symbols());
      engine.residency_.push_back(kResident);
      engine.stub_mask_.push_back(engine.stub_nfa_->InitialStates());
    }
    engine.chains_.push_back(std::make_unique<RegularChain>(std::move(chain)));
    engine.bindings_.push_back(std::move(b));
  }
  engine.chain_probs_.resize(engine.chains_.size(), 0.0);
  if (engine.lifecycle_) {
    engine.idle_ticks_.assign(engine.chains_.size(), 0);
    engine.spilled_.resize(engine.chains_.size());
    engine.chain_options_ = opts;
  }
  size_t total = 0;
  for (const auto& c : engine.chains_) {
    if (c != nullptr) total += 2 * c->FlatStride();
  }
  if (total > 0) {
    const size_t n = engine.chains_.size();
    engine.arena_.assign(total, 0.0);
    engine.stripe_width_.assign(n, 1);
    double* base = engine.arena_.data();
    // Pack consecutive runs of same-kernel SIMD chains into
    // lane-interleaved stripes of exactly simd::kLanes (flat index i of
    // lane j at block[i * kLanes + j]) so StepStripe advances all lanes
    // with one wide pass; leftovers and everything else get the plain
    // contiguous cur|nxt layout. Stubs have no flat state and are skipped.
    constexpr size_t kLanes = simd::kLanes;
    size_t i = 0;
    while (i < n) {
      if (engine.chains_[i] == nullptr) {  // stub: no flat state
        ++i;
        continue;
      }
      RegularChain& c = *engine.chains_[i];
      const size_t stride = c.FlatStride();
      if (stride == 0) {
        ++i;
        continue;
      }
      size_t run = 1;
      if (c.simd()) {
        while (i + run < n && engine.chains_[i + run] != nullptr &&
               engine.chains_[i + run]->simd() &&
               engine.chains_[i + run]->row_class() == c.row_class() &&
               engine.chains_[i + run]->FlatStride() == stride) {
          ++run;
        }
      }
      while (run >= kLanes) {
        for (size_t j = 0; j < kLanes; ++j) {
          engine.chains_[i + j]->BindArena(
              base + j, base + stride * kLanes + j, kLanes);
          engine.stripe_width_[i + j] = j == 0 ? kLanes : 0;
        }
        base += 2 * stride * kLanes;
        i += kLanes;
        run -= kLanes;
      }
      for (; run > 0; --run, ++i) {
        engine.chains_[i]->BindArena(base, base + stride);
        base += 2 * stride;
      }
    }
  }
  return engine;
}

void ExtendedRegularEngine::AppendLifecycleParts(const SymbolTable& table) {
  const std::vector<StreamId>& streams = table.participating();
  for (size_t p = 0; p < streams.size(); ++p) {
    LifecyclePart part;
    part.stream = streams[p];
    part.markovian = db_->stream(streams[p]).markovian();
    const size_t bits = table.domain_size(p);
    part.trigger_bits = static_cast<uint32_t>(bits);
    part.trigger_begin = static_cast<uint32_t>(trigger_words_.size());
    trigger_words_.resize(trigger_words_.size() + (bits + 63) / 64, 0);
    for (size_t d = 0; d < bits; ++d) {
      if (table.MaskFor(p, d) != 0) {
        trigger_words_[part.trigger_begin + d / 64] |= 1ULL << (d % 64);
      }
    }
    parts_.push_back(part);
  }
  part_begin_.push_back(static_cast<uint32_t>(parts_.size()));
}

bool ExtendedRegularEngine::QuietAt(size_t i, Timestamp next) const {
  for (uint32_t k = part_begin_[i]; k < part_begin_[i + 1]; ++k) {
    const LifecyclePart& part = parts_[k];
    const Stream& s = db_->stream(part.stream);
    if (next > s.horizon()) continue;  // stream over: certain bottom
    if (part.markovian) {
      // Only the t == 1 marginal can be certainly-bottom with an exact 1.0
      // multiplier and hidden digit 0; the CPT phase would need per-entry
      // digit tracking to prove quiet, so it is conservatively loud.
      if (next != 1) return false;
      const std::vector<double>& m = s.MarginalAt(1);
      if (m.empty()) continue;
      if (m[0] != 1.0) return false;
      for (size_t d = 1; d < m.size(); ++d) {
        if (m[d] > 0) return false;
      }
      continue;
    }
    // Independent stream: quiet iff no mass sits on a symbol-producing
    // value, exactly the case BuildIndependentMaskDist skips (a single
    // (mask 0, p) entry multiplies nothing in).
    const std::vector<double>& m = s.MarginalAt(next);
    for (size_t d = 0; d < m.size(); ++d) {
      if (m[d] <= 0) continue;
      if (d >= part.trigger_bits) return false;  // interned after creation
      if ((trigger_words_[part.trigger_begin + d / 64] >> (d % 64)) & 1) {
        return false;
      }
    }
  }
  return true;
}

Result<RegularChain> ExtendedRegularEngine::BuildChain(size_t i) const {
  ChainOptions opts = chain_options_;
  opts.stream_index = stream_index_.get();
  NormalizedQuery grounded = query_.Substitute(bindings_[i]);
  LAHAR_ASSIGN_OR_RETURN(RegularChain chain,
                         RegularChain::Create(grounded, *db_, opts));
  // A rebuilt chain must see exactly the creation-time participant set: the
  // always-materialized reference fixes participation at Create, so a
  // stream added since (without re-grounding the query) would diverge.
  const std::vector<StreamId>& now = chain.participating();
  const uint32_t pb = part_begin_[i];
  const uint32_t pe = part_begin_[i + 1];
  bool same = now.size() == pe - pb;
  for (uint32_t k = pb; same && k < pe; ++k) {
    same = parts_[k].stream == now[k - pb];
  }
  if (!same) {
    return Status::Internal(
        "binding's participating streams changed since engine creation; "
        "re-ground the query to pick up new streams");
  }
  return chain;
}

void ExtendedRegularEngine::PromoteChain(size_t i) {
  Result<RegularChain> built = BuildChain(i);
  if (!built.ok()) {
    LatchLifecycleError(built.status());
    return;
  }
  // Seed the fresh chain with the stub's closed-form state at time t_ via
  // the checkpoint path — the same bytes an always-materialized chain would
  // have serialized after the all-quiet prefix.
  serial::Writer w;
  SaveChainState(i, &w);
  serial::Reader r(w.str());
  Status s = built.value().LoadState(&r);
  if (!s.ok()) {
    LatchLifecycleError(s);
    return;
  }
  chains_[i] = std::make_unique<RegularChain>(std::move(built).value());
  residency_[i] = kResident;
  idle_ticks_[i] = 0;
  ++promotions_;
}

void ExtendedRegularEngine::RehydrateChain(size_t i) {
  Result<RegularChain> built = BuildChain(i);
  if (!built.ok()) {
    LatchLifecycleError(built.status());
    return;
  }
  serial::Writer w;
  SaveChainState(i, &w);
  serial::Reader r(w.str());
  Status s = built.value().LoadState(&r);
  if (!s.ok()) {
    LatchLifecycleError(s);
    return;
  }
  chains_[i] = std::make_unique<RegularChain>(std::move(built).value());
  spilled_[i].reset();
  residency_[i] = kResident;
  idle_ticks_[i] = 0;
  ++rehydrations_;
}

void ExtendedRegularEngine::TrySpill(size_t i) {
  const RegularChain& c = *chains_[i];
  if (IsDelegated(i) || c.track_accept() || !c.status().ok()) return;
  // SaveState is the only canonical-order export of the live distribution;
  // parse it back to inspect (and keep) the entries.
  serial::Writer w;
  c.SaveState(&w);
  serial::Reader r(w.str());
  uint32_t t;
  uint8_t track;
  uint64_t slots;
  if (!r.U32(&t).ok() || !r.U8(&track).ok() || !r.U64(&slots).ok()) return;
  auto sp = std::make_unique<SpilledChain>();
  sp->track = track;
  sp->radices = c.radices();
  for (uint32_t k = part_begin_[i]; k < part_begin_[i + 1]; ++k) {
    if (parts_[k].markovian) sp->markov_streams.push_back(parts_[k].stream);
  }
  if (sp->markov_streams.size() != slots || sp->radices.size() != slots) {
    return;
  }
  std::vector<uint64_t> domains(slots);
  for (size_t d = 0; d < slots; ++d) {
    if (!r.U64(&domains[d]).ok()) return;
  }
  uint64_t n;
  if (!r.U64(&n).ok() || n == 0) return;
  sp->entries.reserve(n);
  bool stub_form = n == 1;
  for (uint64_t e = 0; e < n; ++e) {
    SpilledChain::Entry entry;
    if (!r.U64(&entry.mask).ok()) return;
    for (size_t d = 0; d < slots; ++d) {
      uint64_t digit;
      if (!r.U64(&digit).ok()) return;
      entry.hidden += sp->radices[d] * digit;
      if (digit != 0) stub_form = false;
    }
    if (!r.F64(&entry.p).ok()) return;
    if (entry.p != 1.0) stub_form = false;
    sp->entries.push_back(entry);
  }
  if (stub_form) {
    // The state IS the closed form — drop all the way back to a stub.
    stub_mask_[i] = sp->entries[0].mask;
    chains_[i].reset();
    residency_[i] = kStub;
    ++spills_;
    return;
  }
  // Freezing is only sound when quiet ticks are bitwise no-ops: every mask
  // must be a fixed point of the empty-input transition (probabilities are
  // already exact-1.0 multiplies on quiet ticks).
  for (const SpilledChain::Entry& e : sp->entries) {
    if (stub_nfa_->Transition(e.mask, 0) != e.mask) return;
  }
  chains_[i].reset();
  spilled_[i] = std::move(sp);
  residency_[i] = kSpilled;
  ++spills_;
}

void ExtendedRegularEngine::SaveChainState(size_t i, serial::Writer* w) const {
  if (!lifecycle_ || residency_[i] == kResident) {
    // A delegated chain serializes the shared unit's live state — the same
    // canonical bytes the private chain would have written unshared, so
    // checkpoints are bit-identical across sharing modes.
    (IsDelegated(i) ? delegates_[i]->chain() : *chains_[i]).SaveState(w);
    return;
  }
  w->U32(static_cast<uint32_t>(t_));
  if (residency_[i] == kStub) {
    w->U8(0);
    const uint32_t pb = part_begin_[i];
    const uint32_t pe = part_begin_[i + 1];
    uint64_t slots = 0;
    for (uint32_t k = pb; k < pe; ++k) slots += parts_[k].markovian ? 1 : 0;
    w->U64(slots);
    for (uint32_t k = pb; k < pe; ++k) {
      if (parts_[k].markovian) {
        w->U64(db_->stream(parts_[k].stream).domain_size());
      }
    }
    w->U64(1);
    w->U64(stub_mask_[i]);
    for (uint64_t s = 0; s < slots; ++s) w->U64(0);
    w->F64(1.0);
    return;
  }
  const SpilledChain& sp = *spilled_[i];
  w->U8(sp.track);
  w->U64(sp.radices.size());
  // Digits are re-derived against *current* domain sizes with the
  // creation-time radices — exactly RegularChain::SaveState's encoding, so
  // the bytes stay identical even if a domain grew while spilled.
  std::vector<uint64_t> domains(sp.radices.size());
  for (size_t s = 0; s < sp.radices.size(); ++s) {
    domains[s] = db_->stream(sp.markov_streams[s]).domain_size();
    w->U64(domains[s]);
  }
  w->U64(sp.entries.size());
  for (const SpilledChain::Entry& e : sp.entries) {
    w->U64(e.mask);
    for (size_t s = 0; s < sp.radices.size(); ++s) {
      w->U64((e.hidden / sp.radices[s]) % domains[s]);
    }
    w->F64(e.p);
  }
}

Status ExtendedRegularEngine::RestoreChainState(size_t i, serial::Reader* r,
                                                uint32_t t) {
  uint32_t ct;
  uint8_t track;
  uint64_t slots;
  LAHAR_RETURN_NOT_OK(r->U32(&ct));
  LAHAR_RETURN_NOT_OK(r->U8(&track));
  LAHAR_RETURN_NOT_OK(r->U64(&slots));
  std::vector<StreamId> markov;
  for (uint32_t k = part_begin_[i]; k < part_begin_[i + 1]; ++k) {
    if (parts_[k].markovian) markov.push_back(parts_[k].stream);
  }
  if (slots != markov.size()) {
    return Status::InvalidArgument(
        "chain snapshot has " + std::to_string(slots) +
        " Markovian slots, this binding has " +
        std::to_string(markov.size()) + " (different query or database?)");
  }
  std::vector<uint64_t> domains(slots);
  std::vector<uint64_t> radices(slots);
  uint64_t radix = 1;
  for (size_t s = 0; s < slots; ++s) {
    LAHAR_RETURN_NOT_OK(r->U64(&domains[s]));
    const uint64_t here = db_->stream(markov[s]).domain_size();
    if (domains[s] != here) {
      return Status::InvalidArgument(
          "chain snapshot slot " + std::to_string(s) + " has domain size " +
          std::to_string(domains[s]) + ", restored database has " +
          std::to_string(here) + " (snapshot/database mismatch)");
    }
    radices[s] = radix;
    radix *= domains[s];
  }
  uint64_t n;
  LAHAR_RETURN_NOT_OK(r->U64(&n));
  auto sp = std::make_unique<SpilledChain>();
  sp->track = track;
  sp->radices = std::move(radices);
  sp->markov_streams = std::move(markov);
  sp->entries.reserve(n);
  bool stub_form = n == 1 && track == 0;
  for (uint64_t e = 0; e < n; ++e) {
    SpilledChain::Entry entry;
    LAHAR_RETURN_NOT_OK(r->U64(&entry.mask));
    for (size_t s = 0; s < slots; ++s) {
      uint64_t digit;
      LAHAR_RETURN_NOT_OK(r->U64(&digit));
      if (digit >= domains[s]) {
        return Status::InvalidArgument("chain snapshot digit out of domain");
      }
      entry.hidden += sp->radices[s] * digit;
      if (digit != 0) stub_form = false;
    }
    LAHAR_RETURN_NOT_OK(r->F64(&entry.p));
    if (entry.p != 1.0) stub_form = false;
    sp->entries.push_back(entry);
  }
  // Classify back into the cheapest residency that reproduces the snapshot
  // exactly. Chains saved at a different clock than the engine (should not
  // happen in well-formed snapshots) always materialize.
  if (lazy_ && stub_form && ct == t) {
    stub_mask_[i] = sp->entries[0].mask;
    chains_[i].reset();
    spilled_[i].reset();
    residency_[i] = kStub;
    idle_ticks_[i] = 0;
    return Status::OK();
  }
  if (spill_ && track == 0 && n > 0 && ct == t) {
    bool frozen = true;
    for (const SpilledChain::Entry& e : sp->entries) {
      if (stub_nfa_->Transition(e.mask, 0) != e.mask) {
        frozen = false;
        break;
      }
    }
    if (frozen) {
      // Restored cold and stays cold: checkpoints of spilled chains
      // round-trip without forcing a rehydration (docs/RUNTIME.md).
      chains_[i].reset();
      spilled_[i] = std::move(sp);
      residency_[i] = kSpilled;
      idle_ticks_[i] = cold_after_;
      return Status::OK();
    }
  }
  LAHAR_ASSIGN_OR_RETURN(RegularChain chain, BuildChain(i));
  serial::Writer w;
  w.U32(ct);
  w.U8(track);
  w.U64(slots);
  for (size_t s = 0; s < slots; ++s) w.U64(domains[s]);
  w.U64(n);
  for (const SpilledChain::Entry& e : sp->entries) {
    w.U64(e.mask);
    for (size_t s = 0; s < slots; ++s) {
      w.U64((e.hidden / sp->radices[s]) % domains[s]);
    }
    w.F64(e.p);
  }
  serial::Reader cr(w.str());
  LAHAR_RETURN_NOT_OK(chain.LoadState(&cr));
  chains_[i] = std::make_unique<RegularChain>(std::move(chain));
  spilled_[i].reset();
  residency_[i] = kResident;
  idle_ticks_[i] = 0;
  return Status::OK();
}

void ExtendedRegularEngine::LatchLifecycleError(const Status& s) {
  if (s.ok()) return;
  if (lifecycle_error_.ok()) lifecycle_error_ = s;
}

double ExtendedRegularEngine::Step() {
  const size_t end = chains_.size();
  const Timestamp next = t_ + 1;
  size_t i = 0;
  while (i < end) {
    if (lifecycle_ && residency_[i] != kResident) {
      if (QuietAt(i, next)) {
        if (residency_[i] == kStub) {
          // Closed form: the real chain's single entry {mask, 0, 1.0}
          // moves by the empty-input transition; its accept probability is
          // exactly 0.0 or 1.0.
          const StateMask m = stub_nfa_->Transition(stub_mask_[i], 0);
          stub_mask_[i] = m;
          chain_probs_[i] = stub_nfa_->Accepts(m) ? 1.0 : 0.0;
        }
        // Spilled: a quiet tick is a bitwise no-op on a frozen absorbing
        // state, so the recorded probability simply carries forward.
        ++i;
        continue;
      }
      if (residency_[i] == kStub) {
        PromoteChain(i);
      } else {
        RehydrateChain(i);
      }
      if (residency_[i] != kResident) {
        // Build failed; the error is latched (ChainStatus) and the binding
        // stays frozen rather than stepping a dead chain.
        ++i;
        continue;
      }
    }
    // Whole-stripe step when no lane is delegated; otherwise (or when
    // StepStripe declines this tick) every chain steps alone,
    // bit-identically, on the strided path.
    const uint32_t w = i < stripe_width_.size() ? stripe_width_[i] : 1;
    if (w > 1 && i + w <= end) {
      bool delegated = false;
      for (size_t j = 0; j < w && !delegated; ++j) delegated = IsDelegated(i + j);
      if (!delegated) {
        RegularChain* lanes[simd::kLanes];
        for (size_t j = 0; j < w; ++j) lanes[j] = chains_[i + j].get();
        if (RegularChain::StepStripe(lanes, w, next)) {
          for (size_t j = 0; j < w; ++j) {
            chain_probs_[i + j] = chains_[i + j]->AcceptProb();
          }
          ++stripe_steps_;
          i += w;
          continue;
        }
        ++stripe_fallbacks_;
      }
    }
    if (IsDelegated(i)) {
      // The shared unit was advanced past t_+1 before this step (the
      // runtime's shared phase); read its recorded frontier probability.
      chain_probs_[i] = delegates_[i]->ProbAt(next);
    } else {
      // Cold-spill accounting applies only to solo chains: stripe lanes
      // share arena storage, so freezing one would shear the stripe for no
      // memory gain.
      const bool solo = i >= stripe_width_.size() || stripe_width_[i] == 1;
      const bool consider_spill = lifecycle_ && spill_ && solo;
      const bool quiet = consider_spill && QuietAt(i, next);
      chain_probs_[i] = chains_[i]->Step();
      if (consider_spill) {
        if (quiet) {
          const uint32_t idle = ++idle_ticks_[i];
          if (idle >= cold_after_ && idle % cold_after_ == 0) TrySpill(i);
        } else {
          idle_ticks_[i] = 0;
        }
      }
    }
    ++i;
  }
  ++t_;
  // Refresh the stream index if the database gained streams since it was
  // built, so later promotions see current candidates (participation
  // checks in BuildChain still pin the creation-time set).
  if (lifecycle_ && stream_index_ != nullptr &&
      stream_index_->num_streams() != db_->num_streams()) {
    stream_index_ =
        std::make_unique<StreamKeyIndex>(StreamKeyIndex::Build(*db_));
  }
  // A single grounding needs no union, and 1 - (1 - p) is not an IEEE
  // no-op: returning p directly keeps Regular-class answers bit-identical
  // to RegularEngine's.
  if (chain_probs_.size() == 1) return chain_probs_[0];
  double none = 1.0;
  for (double p : chain_probs_) none *= 1.0 - p;
  return 1.0 - none;
}

bool ExtendedRegularEngine::DelegateChain(
    size_t i, std::shared_ptr<SharedSubChain> unit) {
  if (i >= chains_.size() || unit == nullptr) return false;
  // Lifecycle bindings may not hold a live chain to share from (and the
  // sharing planner has no view of residency), so delegation requires a
  // resident chain.
  if (lifecycle_ && residency_[i] != kResident) return false;
  if (!chains_[i]->status().ok() || !unit->status().ok()) return false;
  if (unit->time() != t_) return false;
  if (delegates_.empty()) delegates_.resize(chains_.size());
  if (delegates_[i] == nullptr) ++num_delegated_;
  delegates_[i] = std::move(unit);
  return true;
}

void ExtendedRegularEngine::UndelegateChain(size_t i) {
  if (!IsDelegated(i)) return;
  // Copy construction re-owns the state vector (off any shared arena), so
  // the private chain resumes exactly where the shared unit stands.
  chains_[i] = std::make_unique<RegularChain>(delegates_[i]->chain());
  delegates_[i] = nullptr;
  --num_delegated_;
}

ExtendedRegularEngine::MemoryFootprint ExtendedRegularEngine::Footprint()
    const {
  MemoryFootprint fp;
  fp.arena_bytes = arena_.capacity() * sizeof(double);
  std::unordered_set<const TransitionRowClass*> classes;
  // A resident binding pays the chain object itself plus its owned heap; a
  // stub/spilled binding pays only the null slot. This is the separation
  // the lifecycle exists for, so count it honestly.
  fp.owned_bytes += chains_.capacity() * sizeof(std::unique_ptr<RegularChain>);
  for (const auto& c : chains_) {
    if (c == nullptr) continue;
    fp.owned_bytes += sizeof(RegularChain) + c->OwnedBytes();
    if (c->row_class() != nullptr) classes.insert(c->row_class().get());
  }
  for (const TransitionRowClass* cls : classes) {
    fp.shared_row_bytes += cls->bytes();
  }
  if (lifecycle_) {
    fp.lifecycle_bytes =
        residency_.capacity() * sizeof(uint8_t) +
        stub_mask_.capacity() * sizeof(StateMask) +
        idle_ticks_.capacity() * sizeof(uint32_t) +
        part_begin_.capacity() * sizeof(uint32_t) +
        parts_.capacity() * sizeof(LifecyclePart) +
        trigger_words_.capacity() * sizeof(uint64_t) +
        spilled_.capacity() * sizeof(std::unique_ptr<SpilledChain>);
    for (const std::unique_ptr<SpilledChain>& sp : spilled_) {
      if (sp != nullptr) fp.lifecycle_bytes += sp->bytes();
    }
  }
  return fp;
}

size_t ExtendedRegularEngine::num_resident() const {
  if (!lifecycle_) return chains_.size();
  size_t n = 0;
  for (uint8_t r : residency_) n += r == kResident ? 1 : 0;
  return n;
}

size_t ExtendedRegularEngine::num_stub() const {
  if (!lifecycle_) return 0;
  size_t n = 0;
  for (uint8_t r : residency_) n += r == kStub ? 1 : 0;
  return n;
}

size_t ExtendedRegularEngine::num_spilled() const {
  if (!lifecycle_) return 0;
  size_t n = 0;
  for (uint8_t r : residency_) n += r == kSpilled ? 1 : 0;
  return n;
}

Status ExtendedRegularEngine::ChainStatus() const {
  if (!lifecycle_error_.ok()) return lifecycle_error_;
  for (size_t i = 0; i < chains_.size(); ++i) {
    if (IsDelegated(i)) {
      LAHAR_RETURN_NOT_OK(delegates_[i]->status());
    } else if (chains_[i] != nullptr) {
      LAHAR_RETURN_NOT_OK(chains_[i]->status());
    }
  }
  return Status::OK();
}

std::vector<double> ExtendedRegularEngine::Run() {
  std::vector<double> probs(horizon_ + 1, 0.0);
  for (Timestamp t = 1; t <= horizon_; ++t) probs[t] = Step();
  return probs;
}

void ExtendedRegularEngine::SaveState(serial::Writer* w) const {
  w->U32(t_);
  w->DoubleVec(chain_probs_);
  w->U64(chains_.size());
  for (size_t i = 0; i < chains_.size(); ++i) {
    SaveChainState(i, w);
  }
}

Status ExtendedRegularEngine::LoadState(serial::Reader* r) {
  uint32_t t;
  std::vector<double> probs;
  uint64_t num_chains;
  LAHAR_RETURN_NOT_OK(r->U32(&t));
  LAHAR_RETURN_NOT_OK(r->DoubleVec(&probs));
  LAHAR_RETURN_NOT_OK(r->U64(&num_chains));
  if (num_chains != chains_.size() || probs.size() != chains_.size()) {
    return Status::InvalidArgument(
        "engine snapshot has " + std::to_string(num_chains) +
        " chains, this engine has " + std::to_string(chains_.size()) +
        " (different query or database?)");
  }
  for (size_t i = 0; i < chains_.size(); ++i) {
    if (lifecycle_) {
      LAHAR_RETURN_NOT_OK(RestoreChainState(i, r, t));
    } else if (IsDelegated(i)) {
      LAHAR_RETURN_NOT_OK(delegates_[i]->mutable_chain()->LoadState(r));
      delegates_[i]->ResyncFrontier();
    } else {
      LAHAR_RETURN_NOT_OK(chains_[i]->LoadState(r));
    }
  }
  chain_probs_ = std::move(probs);
  t_ = t;
  return Status::OK();
}

std::vector<ExtendedRegularEngine::BindingSeries>
ExtendedRegularEngine::RunPerBinding() {
  std::vector<BindingSeries> series(chains_.size());
  for (size_t i = 0; i < chains_.size(); ++i) {
    series[i].binding = bindings_[i];
    series[i].probs.assign(horizon_ + 1, 0.0);
  }
  for (Timestamp t = t_ + 1; t <= horizon_; ++t) {
    Step();
    for (size_t i = 0; i < chains_.size(); ++i) {
      series[i].probs[t] = chain_probs_[i];
    }
  }
  return series;
}

}  // namespace lahar
