#include "model/stream.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

namespace lahar {
namespace {

Status CheckDistribution(const std::vector<double>& dist) {
  double total = 0;
  for (double p : dist) {
    if (p < -1e-9 || p > 1 + 1e-9) {
      return Status::InvalidArgument("probability out of [0,1]");
    }
    total += p;
  }
  if (std::fabs(total - 1.0) > 1e-6) {
    return Status::InvalidArgument("distribution sums to " +
                                   std::to_string(total));
  }
  return Status::OK();
}

const std::vector<double> kEmptyDist;

// Every row of a CPT must sum to 1. Each row is summed left to right, as a
// single loop would, but four rows at a time: one row's sum is a chain of
// dependent adds, so interleaving rows keeps the adder busy.
Status CheckCptRows(const Matrix& cpt) {
  constexpr size_t kRows = 4;
  for (size_t r0 = 0; r0 < cpt.rows(); r0 += kRows) {
    const size_t n = std::min(kRows, cpt.rows() - r0);
    double total[kRows] = {0, 0, 0, 0};
    for (size_t c = 0; c < cpt.cols(); ++c) {
      if (n == kRows) {  // a fixed trip count keeps the sums in registers
        for (size_t k = 0; k < kRows; ++k) total[k] += cpt.At(r0 + k, c);
      } else {
        for (size_t k = 0; k < n; ++k) total[k] += cpt.At(r0 + k, c);
      }
    }
    for (size_t k = 0; k < n; ++k) {
      if (std::fabs(total[k] - 1.0) > 1e-6) {
        return Status::InvalidArgument("CPT row " + std::to_string(r0 + k) +
                                       " sums to " +
                                       std::to_string(total[k]));
      }
    }
  }
  return Status::OK();
}

}  // namespace

Stream::Stream(SymbolId type, ValueTuple key, size_t num_value_attrs,
               Timestamp horizon, bool markovian)
    : type_(type),
      key_(std::move(key)),
      num_value_attrs_(num_value_attrs),
      horizon_(horizon),
      markovian_(markovian) {
  domain_.push_back(ValueTuple{});  // index 0 = bottom
  marginals_.resize(horizon_ + 1);
  if (markovian_) {
    cpts_.resize(horizon_);  // cpts_[1..horizon-1]
    cpt_views_.Resize(horizon_);
  }
}

// Dual word-wise FNV-1a over raw entry bits, dealt round-robin into four
// independent lanes and folded, with the dims, in lane order at the end:
// one FNV chain is bound by multiply latency, four run at multiply
// throughput. Word-wise (not byte-wise) keeps the cost well under one pass
// of the validation checks that already read every entry on the write path.
std::array<uint64_t, 2> Stream::DigestCpt(const Matrix& cpt) {
  constexpr size_t kLanes = 4;
  auto mix_lo = [](uint64_t* h, uint64_t v) {
    *h = (*h ^ v) * 0x100000001b3ULL;
  };
  auto mix_hi = [](uint64_t* h, uint64_t v) {
    *h = (*h ^ v) * 0x00000100000001b3ULL + 0x9e3779b97f4a7c15ULL;
  };
  uint64_t lo[kLanes], hi[kLanes];
  for (size_t k = 0; k < kLanes; ++k) {
    lo[k] = 0xcbf29ce484222325ULL + k;
    hi[k] = 0x84222325cbf29ce4ULL + k;
  }
  const double* entries = cpt.data();
  const size_t n = cpt.rows() * cpt.cols();
  auto mix_entry = [&](size_t lane, size_t i) {
    uint64_t bits;
    std::memcpy(&bits, &entries[i], sizeof(bits));
    mix_lo(&lo[lane], bits);
    mix_hi(&hi[lane], bits);
  };
  size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    for (size_t k = 0; k < kLanes; ++k) mix_entry(k, i + k);
  }
  for (; i < n; ++i) mix_entry(i % kLanes, i);
  uint64_t out_lo = 0xcbf29ce484222325ULL;
  uint64_t out_hi = 0x84222325cbf29ce4ULL;
  for (uint64_t v : {static_cast<uint64_t>(cpt.rows()),
                     static_cast<uint64_t>(cpt.cols())}) {
    mix_lo(&out_lo, v);
    mix_hi(&out_hi, v);
  }
  for (size_t k = 0; k < kLanes; ++k) {
    mix_lo(&out_lo, lo[k]);
    mix_hi(&out_hi, hi[k]);
  }
  return {out_lo, out_hi};
}

Stream::SparseCpt Stream::SparsifyCpt(const Matrix& cpt) {
  SparseCpt sparse;
  const double* entries = cpt.data();
  const size_t n = cpt.rows() * cpt.cols();
  size_t nonzeros = 0;
  for (size_t i = 0; i < n; ++i) nonzeros += !(entries[i] <= 0);
  // Branch-free compaction (at CPT densities of a few percent a branch on
  // the entry mispredicts at most nonzeros): every entry is written at
  // the cursor, which only moves past kept ones — so the arrays need one
  // slack slot, dropped at the end.
  sparse.row_begin.resize(cpt.rows() + 1);
  sparse.cols.resize(nonzeros + 1);
  sparse.probs.resize(nonzeros + 1);
  uint32_t kept = 0;
  sparse.row_begin[0] = 0;
  for (size_t r = 0; r < cpt.rows(); ++r) {
    const double* row = cpt.Row(r);
    for (size_t c = 0; c < cpt.cols(); ++c) {
      sparse.cols[kept] = static_cast<uint32_t>(c);
      sparse.probs[kept] = row[c];
      kept += !(row[c] <= 0);
    }
    sparse.row_begin[r + 1] = kept;
  }
  sparse.cols.pop_back();
  sparse.probs.pop_back();
  return sparse;
}

void Stream::CptViews::Resize(size_t n) {
  const size_t old = slots_.size();
  slots_.resize(n);
  for (size_t t = old; t < n; ++t) Reset(t);
}

const std::array<uint64_t, 2>& Stream::CptViews::Digest(
    size_t t, const Matrix& cpt) const {
  Slot& slot = *slots_[t];
  if (!slot.has_digest.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(slot.mu);
    if (!slot.has_digest.load(std::memory_order_relaxed)) {
      slot.digest = DigestCpt(cpt);
      slot.has_digest.store(true, std::memory_order_release);
    }
  }
  return slot.digest;
}

const Stream::SparseCpt& Stream::CptViews::Sparse(size_t t,
                                                  const Matrix& cpt) const {
  Slot& slot = *slots_[t];
  if (!slot.has_sparse.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(slot.mu);
    if (!slot.has_sparse.load(std::memory_order_relaxed)) {
      slot.sparse = SparsifyCpt(cpt);
      slot.has_sparse.store(true, std::memory_order_release);
    }
  }
  return slot.sparse;
}

DomainIndex Stream::InternTuple(const ValueTuple& values) {
  assert(values.size() == num_value_attrs_);
  auto it = domain_index_.find(values);
  if (it != domain_index_.end()) return it->second;
  DomainIndex d = static_cast<DomainIndex>(domain_.size());
  domain_.push_back(values);
  domain_index_.emplace(values, d);
  return d;
}

DomainIndex Stream::LookupTuple(const ValueTuple& values) const {
  auto it = domain_index_.find(values);
  return it == domain_index_.end() ? kNotFound : it->second;
}

Status Stream::SetMarginal(Timestamp t, std::vector<double> dist) {
  if (t < 1 || t > horizon_) return Status::OutOfRange("timestep out of range");
  dist.resize(domain_.size(), 0.0);
  LAHAR_RETURN_NOT_OK(CheckDistribution(dist));
  marginals_[t] = std::move(dist);
  return Status::OK();
}

Status Stream::SetInitial(std::vector<double> dist) {
  if (!markovian_) {
    return Status::InvalidArgument("SetInitial requires a Markovian stream");
  }
  return SetMarginal(1, std::move(dist));
}

Status Stream::SetCpt(Timestamp t, Matrix cpt) {
  if (!markovian_) {
    return Status::InvalidArgument("SetCpt requires a Markovian stream");
  }
  if (t < 1 || t >= horizon_) return Status::OutOfRange("CPT timestep");
  if (cpt.rows() != domain_.size() || cpt.cols() != domain_.size()) {
    return Status::InvalidArgument(
        "CPT must be D x D over the stream domain; intern all tuples first");
  }
  LAHAR_RETURN_NOT_OK(CheckCptRows(cpt));
  cpts_[t] = std::move(cpt);
  cpt_views_.Reset(t);
  return Status::OK();
}

Status Stream::FinalizeMarkov() {
  if (!markovian_) {
    return Status::InvalidArgument("FinalizeMarkov requires Markovian stream");
  }
  if (marginals_[1].empty()) return Status::InvalidArgument("missing initial");
  for (Timestamp t = 1; t < horizon_; ++t) {
    if (cpts_[t].rows() == 0) {
      return Status::InvalidArgument("missing CPT at t=" + std::to_string(t));
    }
    marginals_[t + 1] = cpts_[t].LeftMultiply(marginals_[t]);
  }
  return Status::OK();
}

Status Stream::PruneCpts(double epsilon, size_t* entries_before,
                         size_t* entries_after) {
  if (!markovian_) {
    return Status::InvalidArgument("PruneCpts requires a Markovian stream");
  }
  size_t before = 0, after = 0;
  for (Timestamp t = 1; t < horizon_; ++t) {
    Matrix& cpt = cpts_[t];
    for (size_t r = 0; r < cpt.rows(); ++r) {
      double kept = 0;
      size_t kept_count = 0;
      DomainIndex argmax = 0;
      for (size_t c = 0; c < cpt.cols(); ++c) {
        double p = cpt.At(r, c);
        before += p > 0;
        if (p > cpt.At(r, argmax)) argmax = static_cast<DomainIndex>(c);
        if (p < epsilon) {
          cpt.At(r, c) = 0.0;
        } else {
          kept += p;
          if (p > 0) ++kept_count;
        }
      }
      if (kept <= 0) {
        // Everything pruned: keep the row's mode so the row stays stochastic.
        cpt.At(r, argmax) = 1.0;
        kept_count = 1;
      } else {
        for (size_t c = 0; c < cpt.cols(); ++c) cpt.At(r, c) /= kept;
      }
      after += kept_count;
    }
    cpt_views_.Reset(t);
  }
  if (entries_before != nullptr) *entries_before = before;
  if (entries_after != nullptr) *entries_after = after;
  return FinalizeMarkov();
}

Status Stream::AppendMarginal(std::vector<double> dist) {
  if (markovian_) {
    return Status::InvalidArgument(
        "AppendMarginal requires an independent stream; use AppendMarkovStep");
  }
  dist.resize(domain_.size(), 0.0);
  LAHAR_RETURN_NOT_OK(CheckDistribution(dist));
  marginals_.push_back(std::move(dist));
  ++horizon_;
  return Status::OK();
}

Status Stream::AppendInitial(std::vector<double> dist) {
  if (!markovian_) {
    return Status::InvalidArgument(
        "AppendInitial requires a Markovian stream; use AppendMarginal");
  }
  if (horizon_ != 0) {
    return Status::InvalidArgument(
        "AppendInitial requires an empty stream (horizon 0)");
  }
  dist.resize(domain_.size(), 0.0);
  LAHAR_RETURN_NOT_OK(CheckDistribution(dist));
  marginals_.push_back(std::move(dist));
  cpts_.emplace_back();  // index 0 placeholder; CPTs live at 1..horizon-1
  cpt_views_.Resize(cpts_.size());
  horizon_ = 1;
  return Status::OK();
}

Status Stream::AppendMarkovStep(Matrix cpt) {
  Result<PreparedStep> step = PrepareMarkovStep(std::move(cpt));
  if (!step.ok()) return step.status();
  CommitMarkovStep(std::move(*step));
  return Status::OK();
}

Result<Stream::PreparedStep> Stream::PrepareMarkovStep(Matrix cpt) const {
  if (!markovian_) {
    return Status::InvalidArgument(
        "AppendMarkovStep requires a Markovian stream");
  }
  if (horizon_ < 1 || marginals_[horizon_].empty()) {
    return Status::InvalidArgument(
        "set the initial marginal (and finalize) before appending");
  }
  if (cpt.rows() != domain_.size() || cpt.cols() != domain_.size()) {
    return Status::InvalidArgument("CPT must be D x D over the stream domain");
  }
  LAHAR_RETURN_NOT_OK(CheckCptRows(cpt));
  PreparedStep step;
  step.marginal = cpt.LeftMultiply(marginals_[horizon_]);
  step.cpt = std::move(cpt);
  return step;
}

void Stream::CommitMarkovStep(PreparedStep step) {
  marginals_.push_back(std::move(step.marginal));
  cpts_.push_back(std::move(step.cpt));
  cpt_views_.Resize(cpts_.size());
  ++horizon_;
}

const std::vector<double>& Stream::MarginalAt(Timestamp t) const {
  if (t < 1 || t > horizon_) return kEmptyDist;
  return marginals_[t];
}

const Matrix& Stream::CptAt(Timestamp t) const {
  assert(markovian_ && t >= 1 && t < horizon_);
  return cpts_[t];
}

const std::array<uint64_t, 2>& Stream::CptDigestAt(Timestamp t) const {
  assert(markovian_ && t >= 1 && t < horizon_);
  return cpt_views_.Digest(t, cpts_[t]);
}

const Stream::SparseCpt& Stream::SparseCptAt(Timestamp t) const {
  assert(markovian_ && t >= 1 && t < horizon_);
  return cpt_views_.Sparse(t, cpts_[t]);
}

double Stream::ProbAt(Timestamp t, DomainIndex d) const {
  const auto& m = MarginalAt(t);
  return d < m.size() ? m[d] : 0.0;
}

ProbabilisticEvent Stream::EventAt(Timestamp t) const {
  ProbabilisticEvent e;
  e.t = t;
  const auto& m = MarginalAt(t);
  e.bottom_p = m.empty() ? 1.0 : m[kBottom];
  for (DomainIndex d = 1; d < m.size(); ++d) {
    if (m[d] > 0) e.outcomes.push_back({domain_[d], m[d]});
  }
  return e;
}

std::vector<DomainIndex> Stream::SampleTrajectory(Rng* rng) const {
  std::vector<DomainIndex> traj(horizon_ + 1, kBottom);
  if (horizon_ == 0) return traj;
  if (!markovian_) {
    for (Timestamp t = 1; t <= horizon_; ++t) {
      const auto& m = MarginalAt(t);
      if (m.empty()) continue;  // unset timestep: certain bottom
      size_t d = rng->Categorical(m);
      traj[t] = d >= m.size() ? kBottom : static_cast<DomainIndex>(d);
    }
    return traj;
  }
  const auto& init = MarginalAt(1);
  size_t d0 = rng->Categorical(init);
  traj[1] = d0 >= init.size() ? kBottom : static_cast<DomainIndex>(d0);
  std::vector<double> row(domain_.size());
  for (Timestamp t = 1; t < horizon_; ++t) {
    const Matrix& cpt = cpts_[t];
    const double* r = cpt.Row(traj[t]);
    row.assign(r, r + cpt.cols());
    size_t d = rng->Categorical(row);
    traj[t + 1] = d >= row.size() ? kBottom : static_cast<DomainIndex>(d);
  }
  return traj;
}

double Stream::TrajectoryProb(const std::vector<DomainIndex>& traj) const {
  assert(traj.size() == static_cast<size_t>(horizon_) + 1);
  if (horizon_ == 0) return 1.0;
  double p = ProbAt(1, traj[1]);
  for (Timestamp t = 1; t < horizon_ && p > 0; ++t) {
    if (markovian_) {
      p *= cpts_[t].At(traj[t], traj[t + 1]);
    } else {
      p *= ProbAt(t + 1, traj[t + 1]);
    }
  }
  return p;
}

void WriteValueTuple(const ValueTuple& t, serial::Writer* w) {
  w->U64(t.size());
  for (const Value& v : t) {
    w->U8(static_cast<uint8_t>(v.kind()));
    w->U64(v.is_symbol() ? static_cast<uint64_t>(v.symbol())
                         : static_cast<uint64_t>(v.is_int() ? v.int_value()
                                                            : 0));
  }
}

Status ReadValueTuple(serial::Reader* r, ValueTuple* out) {
  uint64_t n;
  LAHAR_RETURN_NOT_OK(r->U64(&n));
  // Each value takes 9 bytes (u8 kind + u64 payload); bound the untrusted
  // count by what is left before it sizes the reserve.
  if (n > r->remaining() / 9) {
    return Status::InvalidArgument("value tuple length exceeds snapshot");
  }
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint8_t kind;
    uint64_t payload;
    LAHAR_RETURN_NOT_OK(r->U8(&kind));
    LAHAR_RETURN_NOT_OK(r->U64(&payload));
    switch (static_cast<Value::Kind>(kind)) {
      case Value::Kind::kNull:
        out->push_back(Value());
        break;
      case Value::Kind::kSymbol:
        out->push_back(Value::Symbol(static_cast<SymbolId>(payload)));
        break;
      case Value::Kind::kInt:
        out->push_back(Value::Int(static_cast<int64_t>(payload)));
        break;
      default:
        return Status::InvalidArgument("unknown value kind in snapshot");
    }
  }
  return Status::OK();
}

void Stream::SaveTo(serial::Writer* w) const {
  w->U32(type_);
  WriteValueTuple(key_, w);
  w->U64(num_value_attrs_);
  w->U32(horizon_);
  w->U8(markovian_ ? 1 : 0);
  // Domain, skipping the implicit bottom at index 0.
  w->U64(domain_.size() - 1);
  for (size_t d = 1; d < domain_.size(); ++d) WriteValueTuple(domain_[d], w);
  // Marginals for t = 1..horizon. Empty vectors (unset certain-bottom
  // timesteps) and short vectors (recorded before domain growth) are kept
  // as-is, hence the per-timestep presence flag plus exact length.
  for (Timestamp t = 1; t <= horizon_; ++t) {
    const auto& m = marginals_[t];
    w->U8(m.empty() ? 0 : 1);
    if (!m.empty()) w->DoubleVec(m);
  }
  // CPT vector, field-exact: append-built Markovian streams store
  // cpts_.size() == horizon_, Set-built ones horizon_ at declaration time,
  // independent streams 0.
  w->U64(cpts_.size());
  for (const Matrix& cpt : cpts_) {
    w->U64(cpt.rows());
    w->U64(cpt.cols());
    w->F64s(cpt.data(), cpt.rows() * cpt.cols());  // row-major, as stored
  }
}

Result<Stream> Stream::LoadFrom(serial::Reader* r) {
  uint32_t type, horizon;
  ValueTuple key;
  uint64_t num_value_attrs, domain_count;
  uint8_t markovian;
  LAHAR_RETURN_NOT_OK(r->U32(&type));
  LAHAR_RETURN_NOT_OK(ReadValueTuple(r, &key));
  LAHAR_RETURN_NOT_OK(r->U64(&num_value_attrs));
  LAHAR_RETURN_NOT_OK(r->U32(&horizon));
  LAHAR_RETURN_NOT_OK(r->U8(&markovian));
  LAHAR_RETURN_NOT_OK(r->U64(&domain_count));
  // Every timestep carries at least its presence byte, so an untrusted
  // horizon beyond the remaining bytes is corrupt — and must not size the
  // per-tick vectors the constructor allocates.
  if (horizon > r->remaining()) {
    return Status::InvalidArgument("stream horizon exceeds snapshot");
  }
  Stream s(type, std::move(key), num_value_attrs, horizon, markovian != 0);
  for (uint64_t d = 0; d < domain_count; ++d) {
    ValueTuple tuple;
    LAHAR_RETURN_NOT_OK(ReadValueTuple(r, &tuple));
    if (tuple.size() != num_value_attrs) {
      return Status::InvalidArgument("domain tuple arity mismatch in snapshot");
    }
    s.InternTuple(tuple);
  }
  for (Timestamp t = 1; t <= horizon; ++t) {
    uint8_t present;
    LAHAR_RETURN_NOT_OK(r->U8(&present));
    if (present != 0) {
      LAHAR_RETURN_NOT_OK(r->DoubleVec(&s.marginals_[t]));
      // Marginals never outgrow the domain (short ones predate growth);
      // longer ones would index past it.
      if (s.marginals_[t].size() > s.domain_.size()) {
        return Status::InvalidArgument("marginal longer than stream domain");
      }
    }
  }
  uint64_t num_cpts;
  LAHAR_RETURN_NOT_OK(r->U64(&num_cpts));
  // The constructor sized cpts_ as every writer keeps it: a slot per tick
  // for a Markovian stream, none for an independent one. Any other count is
  // corrupt, and checking it here also bounds the loop below.
  if (num_cpts != s.cpts_.size()) {
    return Status::InvalidArgument("CPT count does not match stream");
  }
  for (uint64_t i = 0; i < num_cpts; ++i) {
    uint64_t rows, cols;
    LAHAR_RETURN_NOT_OK(r->U64(&rows));
    LAHAR_RETURN_NOT_OK(r->U64(&cols));
    // Slot 0 is an empty placeholder. Every real CPT is square over the
    // domain as it stood when recorded: no larger than the domain now, and
    // no smaller than the CPT before it (the domain only grows), the
    // initial marginal, or 1x1 — the engines index each CPT by the previous
    // step's domain index.
    const size_t floor =
        i == 0 ? 0
               : std::max<size_t>(1, i == 1 ? s.marginals_[1].size()
                                            : s.cpts_[i - 1].rows());
    const bool well_formed =
        i == 0 ? rows == 0 && cols == 0
               : rows == cols && rows >= floor && rows <= s.domain_.size();
    if (!well_formed) {
      return Status::InvalidArgument("malformed CPT at t=" +
                                     std::to_string(i));
    }
    if (rows != 0 && cols > r->remaining() / sizeof(double) / rows) {
      return Status::InvalidArgument("CPT dims exceed snapshot");
    }
    Matrix m(rows, cols);
    LAHAR_RETURN_NOT_OK(r->F64s(m.data(), rows * cols));
    s.cpts_[i] = std::move(m);
  }
  s.cpt_views_.Resize(s.cpts_.size());
  return s;
}

Status Stream::Validate() const {
  for (Timestamp t = 1; t <= horizon_; ++t) {
    if (marginals_[t].empty()) continue;
    if (marginals_[t].size() != domain_.size()) {
      return Status::Internal("marginal size mismatch at t=" +
                              std::to_string(t));
    }
    LAHAR_RETURN_NOT_OK(CheckDistribution(marginals_[t]));
  }
  return Status::OK();
}

}  // namespace lahar
