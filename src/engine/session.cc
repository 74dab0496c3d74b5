#include "engine/session.h"

#include <utility>

#include "engine/safe_engine.h"
#include "engine/sampling_engine.h"
#include "engine/streaming.h"

namespace lahar {

SharedSubChain::SharedSubChain(std::string key, RegularChain chain,
                               size_t frontier_history)
    : key_(std::move(key)), chain_(std::move(chain)) {
  ring_.assign(frontier_history < 2 ? 2 : frontier_history, 0.0);
  ResyncFrontier();
}

size_t SharedSubChain::AdvanceTo(Timestamp to) {
  size_t executed = 0;
  while (chain_.time() < to) {
    double p = chain_.Step();
    ring_[chain_.time() % ring_.size()] = p;
    ++steps_;
    ++executed;
  }
  return executed;
}

void SharedSubChain::ResyncFrontier() {
  ring_[chain_.time() % ring_.size()] = chain_.AcceptProb();
}

const std::string& QuerySession::ShareableUnitKey(size_t i) const {
  (void)i;
  static const std::string kEmpty;
  return kEmpty;
}

namespace {

// Incremental serving of a Safe query: each tick extends the plan's
// bounded reg-leaf rows and seq witness tables by one column (they grow
// monotonically in tf, Section 3.3) instead of recomputing Run() over the
// whole horizon — AdvanceTo(t) is bit-identical to the batch run. Units are
// the plan's independent grounding groups (the children of its projection
// node, disjoint streams by the safety precondition).
class SafeQuerySession : public QuerySession {
 public:
  explicit SafeQuerySession(SafePlanEngine engine)
      : QuerySession(QueryClass::kSafe, EngineKind::kSafePlan,
                     /*exact=*/true),
        engine_(std::move(engine)) {}

  // The clock advances even when the tick fails, so time() stays in step
  // with the runtime.
  Result<double> Advance() override { return engine_.AdvanceTo(++t_); }

  Timestamp time() const override { return t_; }
  size_t num_units() const override { return engine_.num_groundings(); }
  size_t StepCost() const override { return engine_.StepCost(); }

  SafeMemoStats MemoStats() const override { return engine_.MemoStats(); }

  bool SupportsStateRestore() const override { return true; }

  Status SaveState(serial::Writer* w) const override {
    w->U8(1);  // session-state version
    w->U32(t_);
    return engine_.SaveState(w);
  }

  Status LoadState(serial::Reader* r) override {
    uint8_t version = 0;
    LAHAR_RETURN_NOT_OK(r->U8(&version));
    if (version != 1) {
      return Status::InvalidArgument("unsupported safe-session state");
    }
    LAHAR_RETURN_NOT_OK(r->U32(&t_));
    return engine_.LoadState(r);
  }

 private:
  SafePlanEngine engine_;
  Timestamp t_ = 0;
};

// Approximate serving of Safe-without-plan and Unsafe queries: the sampling
// engine steps its per-sample state one tick at a time, so even provably
// #P-hard queries (Section 3.4) host as standing queries with the
// (epsilon, delta) guarantee of Prop. 3.20. Units are samples.
class SamplingSession : public QuerySession {
 public:
  SamplingSession(SamplingEngine engine, QueryClass query_class)
      : QuerySession(query_class, EngineKind::kSampling, /*exact=*/false),
        engine_(std::move(engine)) {}

  // Step() consumes the tick even when it fails, so time() stays in step
  // with the runtime.
  Result<double> Advance() override { return engine_.Step(); }

  Timestamp time() const override { return engine_.time(); }
  size_t num_units() const override { return engine_.num_samples(); }
  size_t StepCost() const override { return engine_.num_samples(); }

 private:
  SamplingEngine engine_;
};

}  // namespace

Result<std::unique_ptr<QuerySession>> CreateQuerySession(
    EventDatabase* db, const PreparedQuery& prepared,
    const LaharOptions& options) {
  QueryClass cls = prepared.classification.query_class;

  auto sample = [&]() -> Result<std::unique_ptr<QuerySession>> {
    LAHAR_ASSIGN_OR_RETURN(
        SamplingEngine engine,
        SamplingEngine::Create(prepared.ast, *db, options.sampling));
    return std::unique_ptr<QuerySession>(
        new SamplingSession(std::move(engine), cls));
  };

  switch (cls) {
    case QueryClass::kRegular:
    case QueryClass::kExtendedRegular: {
      LAHAR_ASSIGN_OR_RETURN(StreamingSession session,
                             StreamingSession::Create(db, prepared,
                                                      options.chain));
      return std::unique_ptr<QuerySession>(
          new StreamingSession(std::move(session)));
    }
    case QueryClass::kSafe: {
      auto engine =
          SafePlanEngine::Create(prepared.normalized, *db, options.plan);
      if (engine.ok()) {
        return std::unique_ptr<QuerySession>(
            new SafeQuerySession(std::move(*engine)));
      }
      if (!options.allow_sampling_fallback) {
        Status status = engine.status();
        return std::move(status).WithPayload(kQueryClassPayload,
                                             QueryClassName(cls));
      }
      return sample();
    }
    case QueryClass::kUnsafe: {
      if (!options.allow_sampling_fallback) {
        return Status::UnsafeQuery(prepared.classification.reason)
            .WithPayload(kQueryClassPayload, QueryClassName(cls));
      }
      return sample();
    }
  }
  return Status::Internal("bad query class");
}

}  // namespace lahar
