// Unit tests for the concurrent streaming runtime: ingestion queue and
// backpressure, watermark gating, declaration cloning / batch replay, the
// standing-query registry, and StreamRuntime end-to-end equivalence with
// sequential StreamingSession evaluation. The heavier many-query /
// many-tick equivalence run lives in runtime_stress_test.cc.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/prepared.h"
#include "engine/session.h"
#include "engine/streaming.h"
#include "runtime/executor.h"
#include "runtime/ingest.h"
#include "runtime/registry.h"
#include "runtime/replay.h"
#include "runtime/stats.h"
#include "test_util.h"

namespace lahar {
namespace {

using ::lahar::testing::AddIndependentStream;
using ::lahar::testing::AddMarkovStream;
using ::lahar::testing::StepDist;
using namespace std::chrono_literals;

TickBatch MakeBatch(Timestamp t) {
  TickBatch b;
  b.t = t;
  return b;
}

TEST(IngestQueueTest, FifoAndCapacity) {
  IngestQueue q(2);
  EXPECT_TRUE(q.TryPush(MakeBatch(1)));
  EXPECT_TRUE(q.TryPush(MakeBatch(2)));
  EXPECT_FALSE(q.TryPush(MakeBatch(3)));  // full: dropped
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.dropped(), 1u);
  auto a = q.Pop();
  auto b = q.Pop();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->t, 1u);
  EXPECT_EQ(b->t, 2u);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(IngestQueueTest, ClosedRejectionsAreNotCountedAsDrops) {
  IngestQueue q(2);
  ASSERT_TRUE(q.TryPush(MakeBatch(1)));
  q.Close();
  EXPECT_FALSE(q.TryPush(MakeBatch(2)));
  EXPECT_FALSE(q.TryPush(MakeBatch(3)));
  // Shutdown rejections must not pollute the backpressure counter.
  EXPECT_EQ(q.dropped(), 0u);
  EXPECT_EQ(q.closed_rejected(), 2u);
}

TEST(IngestQueueTest, PushDeadlineExpiresWhenFull) {
  IngestQueue q(1);
  ASSERT_TRUE(q.TryPush(MakeBatch(1)));
  Status s = q.Push(MakeBatch(2), 10ms);
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
}

TEST(IngestQueueTest, PushUnblocksWhenConsumerDrains) {
  IngestQueue q(1);
  ASSERT_TRUE(q.TryPush(MakeBatch(1)));
  std::thread consumer([&] {
    std::this_thread::sleep_for(20ms);
    q.Pop();
  });
  EXPECT_OK(q.Push(MakeBatch(2), 5000ms));
  consumer.join();
  auto b = q.Pop();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->t, 2u);
}

TEST(IngestQueueTest, CloseRejectsPushesAndWakesWaiters) {
  IngestQueue q(1);
  ASSERT_TRUE(q.TryPush(MakeBatch(1)));
  std::thread closer([&] {
    std::this_thread::sleep_for(20ms);
    q.Close();
  });
  Status s = q.Push(MakeBatch(2), 5000ms);  // blocked on full, then closed
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  closer.join();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.TryPush(MakeBatch(3)));
  // Queued batches survive Close and drain normally.
  auto b = q.Pop();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->t, 1u);
  // PopWait on a closed, drained queue returns immediately.
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.PopWait(5000ms).has_value());
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 1000ms);
}

TEST(WatermarkTest, SafeIsMinOverTrackedStreams) {
  Watermark w;
  EXPECT_EQ(w.Safe(), Watermark::kUnbounded);  // nothing tracked
  w.Track(0, 3);
  w.Track(1, 5);
  EXPECT_EQ(w.Safe(), 3u);
  w.Advance(0, 7);
  EXPECT_EQ(w.Safe(), 5u);
  w.Advance(1, 4);  // non-monotone advances are ignored
  EXPECT_EQ(w.Safe(), 5u);
}

TEST(WatermarkTest, EndedStreamsStopGating) {
  Watermark w;
  w.Track(0, 2);
  w.Track(1, 10);
  EXPECT_EQ(w.Safe(), 2u);
  w.MarkEnded(0);
  EXPECT_EQ(w.Safe(), 10u);
  w.MarkEnded(1);
  EXPECT_EQ(w.Safe(), Watermark::kUnbounded);  // all ended: nothing gates
}

TEST(WatermarkTest, EndedStreamStaysEndedThroughAdvance) {
  Watermark w;
  w.Track(0, 2);
  w.Track(1, 4);
  w.MarkEnded(0);
  EXPECT_TRUE(w.ended(0));
  EXPECT_EQ(w.Safe(), 4u);
  // A straggler Advance for an ended stream must not resurrect it as a
  // gating stream at the advanced tick.
  w.Advance(0, 3);
  EXPECT_TRUE(w.ended(0));
  EXPECT_EQ(w.Safe(), 4u);
  w.MarkEnded(1);
  EXPECT_EQ(w.Safe(), Watermark::kUnbounded);
}

TEST(WatermarkTest, ReTrackRevivesAnEndedStream) {
  Watermark w;
  w.Track(0, 5);
  w.MarkEnded(0);
  EXPECT_EQ(w.Safe(), Watermark::kUnbounded);
  // The stream grew again (e.g. checkpoint restore re-tracks everything):
  // Track re-registers it at its current horizon and it gates ticks again.
  w.Track(0, 7);
  EXPECT_FALSE(w.ended(0));
  EXPECT_EQ(w.Safe(), 7u);
}

TEST(ApplyBatchTest, AppendsMarginalsAndAdvancesWatermark) {
  EventDatabase db;
  StreamId id = AddIndependentStream(&db, "At", "Joe", {{{"a", 0.5}}});
  Watermark w;
  w.Track(id, db.stream(id).horizon());
  TickBatch batch = MakeBatch(2);
  batch.updates.push_back({id, {0.25, 0.75}, std::nullopt});
  ASSERT_OK(ApplyBatch(&db, batch, &w));
  EXPECT_EQ(db.stream(id).horizon(), 2u);
  EXPECT_EQ(w.Safe(), 2u);
  EXPECT_EQ(db.stream(id).MarginalAt(2)[1], 0.75);
}

TEST(ApplyBatchTest, RejectsWrongTimestep) {
  EventDatabase db;
  StreamId id = AddIndependentStream(&db, "At", "Joe", {{{"a", 0.5}}});
  Watermark w;
  w.Track(id, 1);
  TickBatch batch = MakeBatch(4);  // horizon is 1, so only t=2 is valid
  batch.updates.push_back({id, {0.5, 0.5}, std::nullopt});
  EXPECT_FALSE(ApplyBatch(&db, batch, &w).ok());
  EXPECT_EQ(w.Safe(), 1u);
}

TEST(ApplyBatchTest, SeedsMarkovianStreamThenChainsCpts) {
  // A Markovian stream declared empty: the t=1 batch carries the initial
  // marginal, later ticks carry CPTs — the streaming counterpart of
  // SetInitial + SetCpt + FinalizeMarkov.
  EventDatabase db;
  lahar::testing::DeclareUnarySchema(&db, "At");
  Stream s(db.interner().Intern("At"), {db.Sym("Joe")}, 1, 0,
           /*markovian=*/true);
  s.InternTuple({db.Sym("a")});
  s.InternTuple({db.Sym("b")});
  auto id = db.AddStream(std::move(s));
  ASSERT_TRUE(id.ok());
  Watermark w;
  w.Track(*id, 0);

  TickBatch init = MakeBatch(1);
  init.updates.push_back({*id, {0.0, 0.5, 0.5}, std::nullopt});
  ASSERT_OK(ApplyBatch(&db, init, &w));
  EXPECT_EQ(w.Safe(), 1u);

  Matrix cpt(3, 3, 0.0);
  cpt.At(0, 0) = 1.0;
  cpt.At(1, 1) = 0.9;
  cpt.At(1, 2) = 0.1;
  cpt.At(2, 2) = 1.0;
  TickBatch step = MakeBatch(2);
  step.updates.push_back({*id, {}, cpt});
  ASSERT_OK(ApplyBatch(&db, step, &w));
  EXPECT_EQ(w.Safe(), 2u);
  const Stream& stream = db.stream(*id);
  EXPECT_EQ(stream.horizon(), 2u);
  EXPECT_NEAR(stream.MarginalAt(2)[1], 0.45, 1e-12);
  EXPECT_NEAR(stream.MarginalAt(2)[2], 0.55, 1e-12);
}

TEST(ApplyBatchTest, RejectedBatchLeavesEveryStreamAndWatermarkUntouched) {
  // A batch whose *last* update is invalid must not half-apply: the valid
  // leading updates stay out of the database too.
  EventDatabase db;
  StreamId a = AddIndependentStream(&db, "At", "Joe", {{{"a", 0.5}}});
  StreamId b = AddIndependentStream(&db, "At", "Sue", {{{"a", 0.5}}});
  Watermark w;
  w.Track(a, 1);
  w.Track(b, 1);
  TickBatch batch = MakeBatch(2);
  batch.updates.push_back({a, {0.25, 0.75}, std::nullopt});
  batch.updates.push_back({b, {0.9, 0.9}, std::nullopt});  // sums to 1.8
  Status s = ApplyBatch(&db, batch, &w);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(db.stream(a).horizon(), 1u);
  EXPECT_EQ(db.stream(b).horizon(), 1u);
  EXPECT_EQ(db.horizon(), 1u);
  EXPECT_EQ(w.Safe(), 1u);
  // Fixing the bad update and retrying the same tick applies cleanly —
  // nothing was consumed by the failed attempt.
  batch.updates[1].marginal = {0.1, 0.9};
  ASSERT_OK(ApplyBatch(&db, batch, &w));
  EXPECT_EQ(db.stream(a).horizon(), 2u);
  EXPECT_EQ(db.stream(b).horizon(), 2u);
  EXPECT_EQ(w.Safe(), 2u);
}

TEST(ApplyBatchTest, RejectsDuplicateStreamWithinOneBatch) {
  EventDatabase db;
  StreamId id = AddIndependentStream(&db, "At", "Joe", {{{"a", 0.5}}});
  TickBatch batch = MakeBatch(2);
  batch.updates.push_back({id, {0.5, 0.5}, std::nullopt});
  batch.updates.push_back({id, {0.4, 0.6}, std::nullopt});
  EXPECT_FALSE(ApplyBatch(&db, batch, nullptr).ok());
  EXPECT_EQ(db.stream(id).horizon(), 1u);
}

TEST(ReorderBufferTest, HoldsEarlyTicksUntilDue) {
  EventDatabase db;
  StreamId id = AddIndependentStream(&db, "At", "Joe", {{{"a", 0.5}}});
  Watermark w;
  w.Track(id, 1);
  ReorderBuffer buf(4);
  // t=3 arrives before t=2: buffered, nothing due.
  TickBatch early = MakeBatch(3);
  early.updates.push_back({id, {0.3, 0.7}, std::nullopt});
  std::vector<StreamUpdate> due;
  ASSERT_OK(buf.Offer(db, std::move(early), &due));
  EXPECT_TRUE(due.empty());
  EXPECT_EQ(buf.depth(), 1u);
  TickBatch ready;
  EXPECT_FALSE(buf.PopDue(db, &ready));
  // t=2 arrives: due immediately; applying it makes the buffered t=3 due.
  TickBatch now = MakeBatch(2);
  now.updates.push_back({id, {0.4, 0.6}, std::nullopt});
  ASSERT_OK(buf.Offer(db, std::move(now), &due));
  ASSERT_EQ(due.size(), 1u);
  ASSERT_OK(ApplyBatch(&db, TickBatch{2, std::move(due)}, &w));
  ASSERT_TRUE(buf.PopDue(db, &ready));
  EXPECT_EQ(ready.t, 3u);
  ASSERT_OK(ApplyBatch(&db, ready, &w));
  EXPECT_EQ(buf.depth(), 0u);
  EXPECT_EQ(db.stream(id).horizon(), 3u);
  EXPECT_EQ(db.stream(id).MarginalAt(3)[1], 0.7);
}

TEST(ReorderBufferTest, CountsLateDuplicatesAndMerges) {
  EventDatabase db;
  StreamId id = AddIndependentStream(&db, "At", "Joe", {{{"a", 0.5}}});
  ReorderBuffer buf(4);
  std::vector<StreamUpdate> due;
  // t=1 is already applied: benign duplicate, dropped.
  TickBatch late = MakeBatch(1);
  late.updates.push_back({id, {0.5, 0.5}, std::nullopt});
  ASSERT_OK(buf.Offer(db, std::move(late), &due));
  EXPECT_TRUE(due.empty());
  EXPECT_EQ(buf.late_dropped(), 1u);
  // Two arrivals for the same future (tick, stream) slot: first wins.
  TickBatch first = MakeBatch(3);
  first.updates.push_back({id, {0.3, 0.7}, std::nullopt});
  ASSERT_OK(buf.Offer(db, std::move(first), &due));
  TickBatch second = MakeBatch(3);
  second.updates.push_back({id, {0.9, 0.1}, std::nullopt});
  ASSERT_OK(buf.Offer(db, std::move(second), &due));
  EXPECT_EQ(buf.depth(), 1u);
  EXPECT_EQ(buf.merged(), 1u);
}

TEST(ReorderBufferTest, RejectsBeyondWindowLeavingBufferUntouched) {
  EventDatabase db;
  StreamId id = AddIndependentStream(&db, "At", "Joe", {{{"a", 0.5}}});
  ReorderBuffer buf(2);  // horizon 1: ticks 2..4 acceptable
  std::vector<StreamUpdate> due;
  TickBatch far = MakeBatch(5);
  far.updates.push_back({id, {0.5, 0.5}, std::nullopt});
  Status s = buf.Offer(db, std::move(far), &due);
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(due.empty());
  EXPECT_EQ(buf.depth(), 0u);
  // A mixed batch with one out-of-window update is rejected whole: the due
  // update it carried is not consumed either.
  TickBatch mixed = MakeBatch(2);
  mixed.updates.push_back({id, {0.4, 0.6}, std::nullopt});
  TickBatch bad = MakeBatch(5);
  bad.updates.push_back({id, {0.5, 0.5}, std::nullopt});
  ASSERT_OK(buf.Offer(db, std::move(mixed), &due));
  EXPECT_EQ(due.size(), 1u);
  EXPECT_FALSE(buf.Offer(db, std::move(bad), &due).ok());
  EXPECT_EQ(due.size(), 1u);
}

TEST(ReorderBufferTest, StrictWindowZeroRejectsAnythingNotDue) {
  EventDatabase db;
  StreamId id = AddIndependentStream(&db, "At", "Joe", {{{"a", 0.5}}});
  ReorderBuffer buf(0);
  std::vector<StreamUpdate> due;
  TickBatch next = MakeBatch(2);
  next.updates.push_back({id, {0.4, 0.6}, std::nullopt});
  ASSERT_OK(buf.Offer(db, std::move(next), &due));
  EXPECT_EQ(due.size(), 1u);
  TickBatch future = MakeBatch(3);
  future.updates.push_back({id, {0.4, 0.6}, std::nullopt});
  EXPECT_EQ(buf.Offer(db, std::move(future), &due).code(),
            StatusCode::kOutOfRange);
}

TEST(ReplayTest, CloneDeclarationsPreservesSymbolsAndDomains) {
  EventDatabase db;
  AddIndependentStream(&db, "At", "Joe", {{{"a", 0.5}, {"b", 0.3}}});
  AddMarkovStream(&db, "At", "Sue", {"a", "b", "c"}, 3, 0.8);
  lahar::testing::AddRelation(&db, "Room", {{"a"}, {"b"}});
  auto clone = CloneDeclarations(db);
  ASSERT_OK(clone.status());
  EXPECT_EQ((*clone)->num_streams(), db.num_streams());
  EXPECT_EQ((*clone)->horizon(), 0u);
  // Symbol ids survive, so values interned against either database agree.
  EXPECT_EQ((*clone)->interner().Intern("Sue"), db.interner().Intern("Sue"));
  for (StreamId id = 0; id < db.num_streams(); ++id) {
    const Stream& src = db.stream(id);
    const Stream& dst = (*clone)->stream(id);
    EXPECT_EQ(dst.horizon(), 0u);
    EXPECT_EQ(dst.markovian(), src.markovian());
    EXPECT_EQ(dst.domain_size(), src.domain_size());
  }
  const Relation* room =
      (*clone)->FindRelation((*clone)->interner().Intern("Room"));
  ASSERT_NE(room, nullptr);
  EXPECT_EQ(room->size(), 2u);
}

TEST(ReplayTest, ExtractedBatchesReproduceTheArchiveBitForBit) {
  EventDatabase db;
  AddIndependentStream(&db, "At", "Joe",
                       {{{"a", 0.7}, {"b", 0.2}},
                        {{"b", 0.6}},
                        {{"a", 0.9}, {"b", 0.1}}});
  AddMarkovStream(&db, "At", "Sue", {"a", "b"}, 3, 0.9);
  auto clone = CloneDeclarations(db);
  ASSERT_OK(clone.status());
  auto batches = ExtractBatches(db);
  ASSERT_OK(batches.status());
  ASSERT_EQ(batches->size(), 3u);
  Watermark w;
  for (StreamId id = 0; id < (*clone)->num_streams(); ++id) w.Track(id, 0);
  for (const TickBatch& b : *batches) {
    ASSERT_OK(ApplyBatch(clone->get(), b, &w));
  }
  EXPECT_EQ((*clone)->horizon(), db.horizon());
  for (StreamId id = 0; id < db.num_streams(); ++id) {
    const Stream& src = db.stream(id);
    const Stream& dst = (*clone)->stream(id);
    ASSERT_EQ(dst.horizon(), src.horizon());
    for (Timestamp t = 1; t <= src.horizon(); ++t) {
      EXPECT_EQ(dst.MarginalAt(t), src.MarginalAt(t)) << "t=" << t;
    }
  }
}

TEST(RegistryTest, ServesEveryClassAndTagsRejections) {
  EventDatabase db;
  AddIndependentStream(&db, "R", "k1", {{{"u", 0.5}}});
  AddIndependentStream(&db, "S", "k1", {{{"v", 0.5}}});
  AddIndependentStream(&db, "T", "a", {{{"w", 0.5}}});
  QueryRegistry registry(&db);
  uint64_t v0 = registry.version();
  auto id = registry.Register("R('k1', u : u = 'u')", /*tick=*/0);
  ASSERT_OK(id.status());
  EXPECT_NE(registry.version(), v0);
  EXPECT_NE(registry.Find(*id), nullptr);
  EXPECT_EQ(registry.size(), 1u);

  // Unsafe queries host as approximate sampling sessions by default.
  auto unsafe_id = registry.Register("(R(x, u1); S(y, u2)) WHERE u1 = u2",
                                     /*tick=*/0);
  ASSERT_OK(unsafe_id.status());
  StandingQuery* unsafe_q = registry.Find(*unsafe_id);
  ASSERT_NE(unsafe_q, nullptr);
  EXPECT_EQ(unsafe_q->query_class, QueryClass::kUnsafe);
  EXPECT_EQ(unsafe_q->engine, EngineKind::kSampling);
  EXPECT_FALSE(unsafe_q->exact);
  EXPECT_EQ(registry.size(), 2u);
  ASSERT_OK(registry.Unregister(*unsafe_id));

  // With the sampling fallback disabled, the rejection names the query
  // class in the status payload so callers can route on it.
  LaharOptions exact_only;
  exact_only.allow_sampling_fallback = false;
  QueryRegistry strict(&db, exact_only);
  auto bad = strict.Register("(R(x, u1); S(y, u2)) WHERE u1 = u2", /*tick=*/0);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kUnsafeQuery);
  const std::string* cls = bad.status().GetPayload(kQueryClassPayload);
  ASSERT_NE(cls, nullptr);
  EXPECT_EQ(*cls, "Unsafe");
  EXPECT_EQ(strict.size(), 0u);

  ASSERT_OK(registry.Unregister(*id));
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.Unregister(*id).code(), StatusCode::kNotFound);
}

TEST(RegistryTest, PreparedOverloadSkipsReparse) {
  EventDatabase db;
  AddIndependentStream(&db, "At", "Joe", {{{"a", 0.5}}});
  auto prepared = PrepareQuery("At('Joe', l : l = 'a')", &db);
  ASSERT_OK(prepared.status());
  QueryRegistry registry(&db);
  auto id = registry.Register(*prepared, "At('Joe', l : l = 'a')", /*tick=*/1);
  ASSERT_OK(id.status());
  EXPECT_EQ(registry.Find(*id)->session->time(), 1u);  // caught up
}

TEST(RegistryTest, LateRegistrationCatchesUpToTheTick) {
  // Register after 3 timesteps are archived: the session replays the prefix
  // and lands at the same probability a from-the-start session reports.
  EventDatabase db;
  AddIndependentStream(&db, "At", "Joe",
                       {{{"a", 0.7}, {"b", 0.2}},
                        {{"b", 0.6}, {"a", 0.3}},
                        {{"a", 0.9}, {"b", 0.1}}});
  auto baseline = StreamingSession::Create(&db, "At('Joe', l : l = 'a')");
  ASSERT_OK(baseline.status());
  for (int t = 0; t < 3; ++t) {
    ASSERT_OK(baseline->Advance().status());
  }
  QueryRegistry registry(&db);
  auto id = registry.Register("At('Joe', l : l = 'a')", /*tick=*/3);
  ASSERT_OK(id.status());
  StandingQuery* q = registry.Find(*id);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->session->time(), 3u);
  // Bit-identical: the catch-up replays the same Advance() sequence, so the
  // per-chain state matches a from-the-start session exactly.
  auto* streaming = dynamic_cast<StreamingSession*>(q->session.get());
  ASSERT_NE(streaming, nullptr);
  EXPECT_EQ(streaming->engine().chain_probs(),
            baseline->engine().chain_probs());
}

// Feeds `batches` into `runtime` and collects every published TickResult.
std::vector<TickResult> RunToCompletion(StreamRuntime* runtime,
                                        std::vector<TickBatch> batches) {
  std::vector<TickResult> results;
  runtime->SetTickCallback(
      [&](const TickResult& r) { results.push_back(r); });
  runtime->Start();
  Timestamp last = 0;
  for (TickBatch& b : batches) {
    last = b.t;
    EXPECT_OK(runtime->ingest().Push(std::move(b), 10000ms));
  }
  EXPECT_TRUE(runtime->WaitForTick(last, 10000ms));
  runtime->Stop();
  return results;
}

TEST(StreamRuntimeTest, MatchesSequentialSessionsBitForBit) {
  // Archive a small mixed database, replay it through the runtime, and
  // compare every tick against sequential CreateQuerySession evaluation on
  // the archive itself — one query per serving path, including the Safe
  // plan and the sampler, whose sessions advance through their engines'
  // single-step calls.
  EventDatabase archive;
  AddIndependentStream(&archive, "At", "Joe",
                       {{{"a", 0.7}, {"b", 0.2}},
                        {{"b", 0.6}, {"a", 0.3}},
                        {{"b", 0.5}},
                        {{"a", 0.9}}});
  // The Safe plan's witness subgoal reads independent streams only.
  AddIndependentStream(&archive, "Door", "d1",
                       {{{"in", 0.4}, {"out", 0.5}},
                        {{"in", 0.2}},
                        {{"out", 0.8}, {"in", 0.1}},
                        {{"out", 0.3}, {"in", 0.6}}});
  AddMarkovStream(&archive, "At", "Sue", {"a", "b"}, 4, 0.85);
  struct Case {
    std::string text;
    EngineKind engine;
  };
  const std::vector<Case> queries = {
      {"At('Joe', l : l = 'a')", EngineKind::kRegular},
      {"At('Sue', l1 : l1 = 'a'); At('Sue', l2 : l2 = 'b')",
       EngineKind::kRegular},
      {"At(x, l : l = 'b')", EngineKind::kRegular},  // one chain per tag
      {"At(x, l1 : l1 = 'a'); At(x, l2 : l2 = 'b')",
       EngineKind::kExtendedRegular},
      {"At(p, l1); At(p, l2); Door(q, l3)", EngineKind::kSafePlan},
      {"(At(x, l1); At(y, l2)) WHERE l1 = l2", EngineKind::kSampling},
  };
  // The session options of WindowWidthIsObservationallyEquivalent.
  LaharOptions session_options;
  session_options.plan.assume_distinct_keys = true;  // for the Safe plan
  session_options.sampling.num_samples = 64;
  session_options.sampling.seed = 2008;

  std::vector<std::vector<double>> expected(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto prepared = PrepareQuery(queries[i].text, &archive);
    ASSERT_OK(prepared.status());
    auto session = CreateQuerySession(&archive, *prepared, session_options);
    ASSERT_OK(session.status());
    EXPECT_EQ((*session)->engine_kind(), queries[i].engine)
        << queries[i].text;
    for (Timestamp t = 1; t <= archive.horizon(); ++t) {
      auto p = (*session)->Advance();
      ASSERT_OK(p.status());
      expected[i].push_back(*p);
    }
  }

  for (size_t threads : {1u, 4u}) {
    auto clone = CloneDeclarations(archive);
    ASSERT_OK(clone.status());
    auto batches = ExtractBatches(archive);
    ASSERT_OK(batches.status());
    RuntimeOptions options;
    options.num_threads = threads;
    options.queue_capacity = 2;  // exercise blocking Push
    options.session = session_options;
    StreamRuntime runtime(clone->get(), options);
    std::vector<QueryId> ids;
    for (const Case& q : queries) {
      auto id = runtime.Register(q.text);
      ASSERT_OK(id.status());
      ids.push_back(*id);
    }
    std::vector<TickResult> results =
        RunToCompletion(&runtime, std::move(*batches));
    ASSERT_EQ(results.size(), archive.horizon()) << threads << " threads";
    for (size_t t = 0; t < results.size(); ++t) {
      EXPECT_EQ(results[t].t, t + 1);
      for (size_t i = 0; i < queries.size(); ++i) {
        const double* p = results[t].Find(ids[i]);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(*p, expected[i][t])
            << queries[i].text << " at t=" << t + 1 << ", " << threads
            << " threads";
      }
    }
    EXPECT_EQ(runtime.tick(), archive.horizon());
    auto latest = runtime.Latest();
    ASSERT_NE(latest, nullptr);
    EXPECT_EQ(latest->t, archive.horizon());
  }
}

TEST(StreamRuntimeTest, HotRegisterJoinsInLockstep) {
  EventDatabase archive;
  AddIndependentStream(&archive, "At", "Joe",
                       {{{"a", 0.7}, {"b", 0.2}},
                        {{"b", 0.6}, {"a", 0.3}},
                        {{"b", 0.5}, {"a", 0.1}},
                        {{"a", 0.9}}});
  const std::string query = "At('Joe', l : l = 'a')";
  auto baseline = StreamingSession::Create(&archive, query);
  ASSERT_OK(baseline.status());
  std::vector<double> expected;
  for (Timestamp t = 1; t <= archive.horizon(); ++t) {
    auto p = baseline->Advance();
    ASSERT_OK(p.status());
    expected.push_back(*p);
  }

  auto clone = CloneDeclarations(archive);
  ASSERT_OK(clone.status());
  auto batches = ExtractBatches(archive);
  ASSERT_OK(batches.status());
  RuntimeOptions options;
  options.num_threads = 2;
  StreamRuntime runtime(clone->get(), options);
  runtime.Start();
  // Feed the first two ticks with no queries registered...
  for (int i = 0; i < 2; ++i) {
    ASSERT_OK(runtime.ingest().Push(std::move((*batches)[i]), 10000ms));
  }
  ASSERT_TRUE(runtime.WaitForTick(2, 10000ms));
  // ...then register: the session must replay t=1..2 and join at t=3 with
  // the same state a from-the-start session would have.
  auto id = runtime.Register(query);
  ASSERT_OK(id.status());
  for (size_t i = 2; i < batches->size(); ++i) {
    ASSERT_OK(runtime.ingest().Push(std::move((*batches)[i]), 10000ms));
  }
  ASSERT_TRUE(runtime.WaitForTick(4, 10000ms));
  auto latest = runtime.Latest();
  ASSERT_NE(latest, nullptr);
  const double* p = latest->Find(*id);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(*p, expected[3]);
  ASSERT_OK(runtime.Unregister(*id));
  runtime.Stop();
}

TEST(StreamRuntimeTest, StatsCountTicksQueriesAndQueue) {
  EventDatabase archive;
  AddIndependentStream(&archive, "At", "Joe",
                       {{{"a", 0.5}}, {{"a", 0.4}}, {{"a", 0.3}}});
  auto clone = CloneDeclarations(archive);
  ASSERT_OK(clone.status());
  auto batches = ExtractBatches(archive);
  ASSERT_OK(batches.status());
  RuntimeOptions options;
  options.num_threads = 2;
  StreamRuntime runtime(clone->get(), options);
  auto id = runtime.Register("At('Joe', l : l = 'a')");
  ASSERT_OK(id.status());
  RunToCompletion(&runtime, std::move(*batches));
  RuntimeStats stats = runtime.Stats();
  EXPECT_EQ(stats.tick, 3u);
  EXPECT_EQ(stats.ticks_processed, 3u);
  EXPECT_EQ(stats.num_queries, 1u);
  EXPECT_EQ(stats.num_threads, 2u);
  EXPECT_EQ(stats.batches_applied, 3u);
  EXPECT_EQ(stats.batches_rejected, 0u);
  EXPECT_TRUE(stats.last_ingest_error.empty());
  EXPECT_EQ(stats.tick_latency.count, 3u);
  ASSERT_EQ(stats.queries.size(), 1u);
  EXPECT_EQ(stats.queries[0].id, *id);
  EXPECT_EQ(stats.queries[0].ticks, 3u);
  EXPECT_EQ(stats.queries[0].advance.count, 3u);
  ASSERT_EQ(stats.shards.size(), 2u);
  uint64_t chains = 0;
  for (const ShardStats& s : stats.shards) chains += s.chains_stepped;
  EXPECT_EQ(chains, 3u);  // 1 chain x 3 ticks
  // Both serializations render without blowing up.
  EXPECT_NE(stats.ToString().find("ticks"), std::string::npos);
  EXPECT_NE(stats.ToJson().find("\"tick\""), std::string::npos);
  EXPECT_NE(stats.ToJson().find("\"plan_rebuilds\""), std::string::npos);
}

TEST(StreamRuntimeTest, SimdUnitsAreReportedInStats) {
  EventDatabase archive;
  // Dense self-biased CPT over three states: density 10/16 clears the
  // auto step-mode threshold, so the standing query's chain takes the
  // vectorized path and shows up in the simd_units counters.
  AddMarkovStream(&archive, "At", "Joe", {"a", "b", "c"}, 4, 0.7);
  auto clone = CloneDeclarations(archive);
  ASSERT_OK(clone.status());
  auto batches = ExtractBatches(archive);
  ASSERT_OK(batches.status());
  StreamRuntime runtime(clone->get(), RuntimeOptions{});
  auto id = runtime.Register("At('Joe', l1 : l1 = 'a'); At('Joe', l2 : l2 = 'b')");
  ASSERT_OK(id.status());
  RunToCompletion(&runtime, std::move(*batches));
  RuntimeStats stats = runtime.Stats();
  ASSERT_EQ(stats.queries.size(), 1u);
  EXPECT_EQ(stats.queries[0].simd_units, 1u);
  EXPECT_EQ(stats.simd_units, 1u);
  EXPECT_NE(stats.ToJson().find("\"simd_units\":1"), std::string::npos);
}

// A RuntimeStats with every counter nonzero, one shard, a net section with
// one tenant, and per-class lists.
RuntimeStats FullyPopulatedStats() {
  const LatencySummary lat{1, 1, 1, 1, 1, 1};
  RuntimeStats s;
  s.tick = 1;
  s.ticks_processed = 2;
  s.num_queries = 1;
  s.total_chains = 3;
  s.num_threads = 1;
  s.queue_depth = 1;
  s.queue_capacity = 2;
  s.queue_dropped = 1;
  s.queue_closed_rejected = 1;
  s.batches_applied = 1;
  s.batches_rejected = 1;
  s.last_ingest_error = "e";
  s.reorder_depth = 1;
  s.reorder_window = 1;
  s.reorder_late_dropped = 1;
  s.reorder_merged = 1;
  s.class_counts = {{"Regular", 1}};
  s.class_latency = {{"Regular", lat}};
  s.sharing_groups = 1;
  s.shared_steps_executed = 1;
  s.shared_steps_saved = 1;
  s.sharing_fanout_hist = {1};
  s.prepared_dedup_hits = 1;
  s.kernel_cache_hits = 1;
  s.kernel_cache_misses = 1;
  s.kernel_cache_entries = 1;
  s.tick_latency = lat;
  s.windows_executed = 1;
  s.max_window_ticks = 1;
  s.window_size_hist = {1};
  s.plan_rebuilds = 1;
  s.barrier_wait = lat;
  s.net.connections = 1;
  s.net.total_connections = 1;
  s.net.frames_in = 1;
  s.net.frames_out = 1;
  s.net.bytes_in = 1;
  s.net.bytes_out = 1;
  s.net.protocol_errors = 1;
  s.net.quota_rejected = 1;
  s.net.backpressure_rejected = 1;
  s.net.slow_disconnects = 1;
  s.net.subscriptions = 1;
  s.net.tenants = {{"t", 1, 1}};
  QueryStats q;
  q.memo_entries = 1;
  q.memo_hits = 1;
  q.memo_misses = 1;
  q.memo_evictions = 1;
  q.rows_live = 1;
  q.row_evictions = 1;
  q.row_rebuilds = 1;
  q.bytes_resident = 1;
  q.resident_units = 1;
  q.stub_units = 1;
  q.spilled_units = 1;
  q.promotions = 1;
  q.spills = 1;
  q.rehydrations = 1;
  q.shared_units = 1;
  q.simd_units = 1;
  q.stripe_steps = 1;
  q.stripe_fallbacks = 1;
  static_cast<SessionCounters&>(s) = q;
  q.id = 1;
  q.text = "q";
  q.query_class = "Regular";
  q.engine = "e";
  q.num_chains = 1;
  q.ticks = 1;
  q.errors = 1;
  q.last_error = "x";
  q.kernel_hits = 1;
  q.kernel_misses = 1;
  q.advance = lat;
  s.queries = {q};
  ShardStats shard;
  shard.ticks = 1;
  shard.chains_stepped = 1;
  shard.tick = lat;
  s.shards = {shard};
  return s;
}

// Dotted paths of every object key in a JSON document; list entries add
// "[]" ("query_stats.[].id").
std::set<std::string> JsonKeyPaths(const std::string& json) {
  std::set<std::string> paths;
  std::vector<std::string> prefixes;  // child path prefix per open container
  std::string key;  // path of the key whose value comes next
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"') {
      std::string str;
      for (++i; json[i] != '"'; ++i) {
        if (json[i] == '\\') ++i;
        str += json[i];
      }
      if (i + 1 < json.size() && json[i + 1] == ':') {
        key = prefixes.back() + str;
        paths.insert(key);
      }
    } else if (c == '{' || c == '[') {
      std::string prefix = !key.empty()        ? key + "."
                           : prefixes.empty() ? ""
                                              : prefixes.back();
      if (c == '[') prefix += "[].";
      prefixes.push_back(prefix);
      key.clear();
    } else if (c == '}' || c == ']') {
      prefixes.pop_back();
    } else if (c == ',') {
      key.clear();
    }
  }
  return paths;
}

// Every key path the JSON rendering carried before the renderers walked
// field lists, except that the four safe_* totals are now the summed
// session counters (memo_entries, memo_evictions, rows_live,
// row_evictions).
TEST(RuntimeStatsTest, JsonKeepsEveryEarlierKey) {
  const std::vector<std::string> kEarlierPaths = {
      "tick", "ticks_processed", "queries", "chains", "threads",
      "queue_depth", "queue_capacity", "queue_dropped",
      "queue_closed_rejected", "batches_applied", "batches_rejected",
      "reorder_depth", "reorder_window", "reorder_late_dropped",
      "reorder_merged", "windows_executed", "max_window_ticks",
      "plan_rebuilds", "window_size_hist", "barrier_wait",
      "barrier_wait.count", "barrier_wait.min_us", "barrier_wait.mean_us",
      "barrier_wait.p50_us", "barrier_wait.p99_us", "barrier_wait.max_us",
      "classes", "classes.Regular", "memo_entries", "memo_evictions",
      "rows_live", "row_evictions", "bytes_resident", "resident_units",
      "stub_units", "spilled_units", "promotions", "spills", "rehydrations",
      "sharing_groups", "shared_steps_executed", "shared_steps_saved",
      "prepared_dedup_hits", "kernel_cache_hits", "kernel_cache_misses",
      "kernel_cache_entries", "simd_units", "stripe_steps",
      "stripe_fallbacks", "sharing_fanout_hist", "class_latency",
      "class_latency.Regular", "class_latency.Regular.count",
      "class_latency.Regular.min_us", "class_latency.Regular.mean_us",
      "class_latency.Regular.p50_us", "class_latency.Regular.p99_us",
      "class_latency.Regular.max_us", "net", "net.connections",
      "net.total_connections", "net.subscriptions", "net.frames_in",
      "net.frames_out", "net.bytes_in", "net.bytes_out",
      "net.protocol_errors", "net.quota_rejected",
      "net.backpressure_rejected", "net.slow_disconnects", "net.tenants",
      "net.tenants.t", "net.tenants.t.ingest", "net.tenants.t.quota_rejected",
      "query_stats", "query_stats.[].id", "query_stats.[].class",
      "query_stats.[].engine", "query_stats.[].exact",
      "query_stats.[].units", "query_stats.[].ticks",
      "query_stats.[].errors", "query_stats.[].kernel_hits",
      "query_stats.[].kernel_misses", "query_stats.[].shared_units",
      "query_stats.[].simd_units", "query_stats.[].stripe_steps",
      "query_stats.[].stripe_fallbacks", "query_stats.[].bytes_resident",
      "query_stats.[].resident_units", "query_stats.[].stub_units",
      "query_stats.[].spilled_units", "query_stats.[].promotions",
      "query_stats.[].spills", "query_stats.[].rehydrations",
      "query_stats.[].text", "query_stats.[].last_error", "tick_latency",
      "tick_latency.count", "tick_latency.min_us", "tick_latency.mean_us",
      "tick_latency.p50_us", "tick_latency.p99_us", "tick_latency.max_us"};
  const std::string json = FullyPopulatedStats().ToJson();
  const std::set<std::string> paths = JsonKeyPaths(json);
  for (const std::string& path : kEarlierPaths) {
    EXPECT_EQ(paths.count(path), 1u) << path << " missing from " << json;
  }
  // Fields the earlier rendering left out of JSON.
  for (const char* path :
       {"last_ingest_error", "shards", "shards.[].chains_stepped",
        "query_stats.[].advance", "query_stats.[].memo_entries",
        "query_stats.[].rows_live"}) {
    EXPECT_EQ(paths.count(path), 1u) << path << " missing from " << json;
  }
  // Text uses the same keys, errors included.
  const std::string text = FullyPopulatedStats().ToString();
  EXPECT_NE(text.find(" errors=1"), std::string::npos) << text;
  EXPECT_NE(text.find(" shared_steps_saved=1"), std::string::npos) << text;
}

// Strings are appended whole: a long tenant name (chosen by the client in
// kHello), query error or ingest error must neither truncate the JSON nor
// run two text lines together.
TEST(RuntimeStatsTest, RenderersKeepLongStrings) {
  const std::string tenant = std::string(300, 'a') + "\"" +
                             std::string(299, 'b');
  const std::string query_error(300, 'q');
  const std::string ingest_error(300, 'i');
  ASSERT_EQ(tenant.size(), 600u);
  RuntimeStats s;
  s.last_ingest_error = ingest_error;
  s.net.connections = 1;
  s.net.tenants = {{tenant, 1, 0}};
  QueryStats q0;
  q0.id = 1;
  q0.last_error = query_error;
  QueryStats q1;
  q1.id = 2;
  s.queries = {q0, q1};

  const std::string json = s.ToJson();
  EXPECT_NE(json.find("\"" + JsonEscape(tenant) + "\":{\"ingest\":"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"last_error\":\"" + query_error + "\"},{\"id\":2"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"last_ingest_error\":\"" + ingest_error +
                      "\",\"reorder_depth\":"),
            std::string::npos)
      << json;
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.back(), '}');

  const std::string text = s.ToString();
  EXPECT_NE(text.find(JsonEscape(tenant)), std::string::npos) << text;
  EXPECT_NE(text.find("last_error=\"" + query_error + "\"\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\n  query_stats[0]: id=1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("\n  query_stats[1]: id=2"), std::string::npos)
      << text;
}

TEST(StreamRuntimeTest, MalformedBatchIsCountedNotFatal) {
  EventDatabase archive;
  AddIndependentStream(&archive, "At", "Joe", {{{"a", 0.5}}, {{"a", 0.4}}});
  auto clone = CloneDeclarations(archive);
  ASSERT_OK(clone.status());
  auto batches = ExtractBatches(archive);
  ASSERT_OK(batches.status());
  RuntimeOptions options;
  options.num_threads = 1;
  options.reorder_window = 2;  // t=7 at horizon 0 is far beyond 1+2
  StreamRuntime runtime(clone->get(), options);
  ASSERT_OK(runtime.Register("At('Joe', l : l = 'a')").status());
  runtime.Start();
  TickBatch bogus;
  bogus.t = 7;  // nothing covers t=6 yet
  bogus.updates.push_back({0, {0.5, 0.5}, std::nullopt});
  ASSERT_OK(runtime.ingest().Push(std::move(bogus), 10000ms));
  for (TickBatch& b : *batches) {
    ASSERT_OK(runtime.ingest().Push(std::move(b), 10000ms));
  }
  ASSERT_TRUE(runtime.WaitForTick(2, 10000ms));
  runtime.Stop();
  RuntimeStats stats = runtime.Stats();
  EXPECT_EQ(stats.batches_applied, 2u);
  EXPECT_EQ(stats.batches_rejected, 1u);
  EXPECT_FALSE(stats.last_ingest_error.empty());
  EXPECT_EQ(stats.tick, 2u);
}

TEST(StreamRuntimeTest, SingleThreadedRuntimeStillReportsShardStats) {
  // num_threads == 1 runs chain work inline on the coordinator; that path
  // used to vanish from the stats entirely (no shard counters at all).
  EventDatabase archive;
  AddIndependentStream(&archive, "At", "Joe",
                       {{{"a", 0.5}}, {{"a", 0.4}}, {{"a", 0.3}}});
  auto clone = CloneDeclarations(archive);
  ASSERT_OK(clone.status());
  auto batches = ExtractBatches(archive);
  ASSERT_OK(batches.status());
  RuntimeOptions options;
  options.num_threads = 1;
  StreamRuntime runtime(clone->get(), options);
  ASSERT_OK(runtime.Register("At('Joe', l : l = 'a')").status());
  RunToCompletion(&runtime, std::move(*batches));
  RuntimeStats stats = runtime.Stats();
  EXPECT_EQ(stats.num_threads, 1u);
  ASSERT_EQ(stats.shards.size(), 1u);
  EXPECT_EQ(stats.shards[0].ticks, 3u);
  EXPECT_EQ(stats.shards[0].chains_stepped, 3u);  // 1 chain x 3 ticks
  EXPECT_EQ(stats.shards[0].tick.count, 3u);
}

TEST(StreamRuntimeTest, OutOfOrderIngestIsBufferedAndApplied) {
  // Push ticks 2, 3, 1 (in that order): the reorder buffer holds 2 and 3
  // until 1 lands, then the runtime drains all three and the published
  // results match an in-order run bit for bit.
  EventDatabase archive;
  AddIndependentStream(&archive, "At", "Joe",
                       {{{"a", 0.7}, {"b", 0.2}},
                        {{"b", 0.6}, {"a", 0.3}},
                        {{"a", 0.9}}});
  AddMarkovStream(&archive, "At", "Sue", {"a", "b"}, 3, 0.85);
  const std::string query = "At('Joe', l : l = 'a')";
  auto baseline = StreamingSession::Create(&archive, query);
  ASSERT_OK(baseline.status());
  std::vector<double> expected;
  for (Timestamp t = 1; t <= archive.horizon(); ++t) {
    auto p = baseline->Advance();
    ASSERT_OK(p.status());
    expected.push_back(*p);
  }

  auto clone = CloneDeclarations(archive);
  ASSERT_OK(clone.status());
  auto batches = ExtractBatches(archive);
  ASSERT_OK(batches.status());
  ASSERT_EQ(batches->size(), 3u);
  RuntimeOptions options;
  options.num_threads = 2;
  options.reorder_window = 8;
  StreamRuntime runtime(clone->get(), options);
  auto id = runtime.Register(query);
  ASSERT_OK(id.status());
  std::vector<TickResult> results;
  runtime.SetTickCallback([&](const TickResult& r) { results.push_back(r); });
  runtime.Start();
  for (size_t i : {1u, 2u, 0u}) {
    ASSERT_OK(runtime.ingest().Push(std::move((*batches)[i]), 10000ms));
  }
  // Duplicate of tick 1 after the fact: dropped as late, not an error.
  auto dup = ExtractBatches(archive);
  ASSERT_OK(dup.status());
  ASSERT_OK(runtime.ingest().Push(std::move((*dup)[0]), 10000ms));
  ASSERT_TRUE(runtime.WaitForTick(3, 10000ms));
  // The duplicate is dropped asynchronously; wait for the counter, not just
  // the tick.
  for (int i = 0; i < 1000; ++i) {
    if (runtime.Stats().reorder_late_dropped > 0) break;
    std::this_thread::sleep_for(2ms);
  }
  runtime.Stop();
  ASSERT_EQ(results.size(), 3u);
  for (size_t t = 0; t < results.size(); ++t) {
    const double* p = results[t].Find(*id);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, expected[t]) << "t=" << t + 1;
  }
  RuntimeStats stats = runtime.Stats();
  EXPECT_EQ(stats.batches_rejected, 0u);
  EXPECT_TRUE(stats.last_ingest_error.empty());
  EXPECT_EQ(stats.reorder_depth, 0u);
  EXPECT_EQ(stats.reorder_window, 8u);
  // The duplicate tick-1 batch was shed update-by-update as late.
  EXPECT_GT(stats.reorder_late_dropped, 0u);
}

TEST(StreamRuntimeTest, WaitForTickWakesPromptlyOnStop) {
  // A waiter blocked on a tick that will never arrive must wake (and
  // return false) as soon as the runtime stops, not sleep out its timeout.
  EventDatabase archive;
  AddIndependentStream(&archive, "At", "Joe", {{{"a", 0.5}}});
  auto clone = CloneDeclarations(archive);
  ASSERT_OK(clone.status());
  StreamRuntime runtime(clone->get(), RuntimeOptions{});
  runtime.Start();
  std::atomic<bool> woke_with{true};
  const auto start = std::chrono::steady_clock::now();
  std::thread waiter(
      [&] { woke_with.store(runtime.WaitForTick(100, 60000ms)); });
  std::this_thread::sleep_for(50ms);
  runtime.Stop();
  waiter.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(woke_with.load());
  EXPECT_LT(elapsed, 10s) << "WaitForTick slept through Stop()";
}

// Windowed execution is an optimisation, not a semantics change: the same
// preloaded workload run with the default 16-tick window cap and with a
// 1-tick cap (pure tick-at-a-time, the pre-windowing behavior) must
// publish bit-identical TickResult sequences and byte-identical
// checkpoints. One query per class — Regular, Extended Regular, Safe
// plan, and Unsafe-via-sampling (whose many-sample session is the heaviest
// and lands alone on one worker while the others share the rest).
TEST(StreamRuntimeTest, WindowWidthIsObservationallyEquivalent) {
  constexpr Timestamp kWinHorizon = 24;
  EventDatabase archive;
  std::vector<StepDist> joe;
  for (Timestamp t = 0; t < kWinHorizon; ++t) {
    joe.push_back(t % 3 == 0 ? StepDist{{"a", 0.7}, {"b", 0.2}}
                             : StepDist{{"b", 0.5}, {"a", 0.3}});
  }
  AddIndependentStream(&archive, "At", "Joe", joe);
  AddMarkovStream(&archive, "At", "Sue", {"a", "b"}, kWinHorizon, 0.85);

  LaharOptions session_options;
  session_options.plan.assume_distinct_keys = true;  // for the Safe plan
  session_options.sampling.num_samples = 64;
  session_options.sampling.seed = 2008;

  const std::vector<std::string> queries = {
      "At('Joe', l : l = 'a')",                 // Regular
      "At(x, l : l = 'b')",                     // Extended Regular
      "At(p, l1); At(p, l2); At(q, l3)",        // Safe plan
      "(At(x, l1); At(y, l2)) WHERE l1 = l2",   // Unsafe -> sampling
  };

  struct Run {
    std::vector<QueryId> ids;
    std::vector<TickResult> results;
    std::string checkpoint;
    uint64_t windows = 0;
    size_t cap = 0;
  };
  auto run_with_cap = [&](size_t cap) {
    Run out;
    auto clone = CloneDeclarations(archive);
    EXPECT_OK(clone.status());
    auto batches = ExtractBatches(archive);
    EXPECT_OK(batches.status());
    RuntimeOptions options;
    options.num_threads = 4;
    options.max_window_ticks = cap;
    options.queue_capacity = batches->size();  // preload: windows fill up
    options.session = session_options;
    StreamRuntime runtime(clone->get(), options);
    for (const std::string& q : queries) {
      auto id = runtime.Register(q);
      EXPECT_OK(id.status());
      out.ids.push_back(id.ok() ? *id : 0);
    }
    for (TickBatch& b : *batches) {
      EXPECT_TRUE(runtime.ingest().TryPush(std::move(b)));
    }
    runtime.SetTickCallback(
        [&](const TickResult& r) { out.results.push_back(r); });
    runtime.Start();
    EXPECT_TRUE(runtime.WaitForTick(kWinHorizon, 60000ms));
    runtime.Stop();
    auto snapshot = runtime.Checkpoint();
    EXPECT_OK(snapshot.status());
    if (snapshot.ok()) out.checkpoint = *snapshot;
    RuntimeStats stats = runtime.Stats();
    out.windows = stats.windows_executed;
    out.cap = stats.max_window_ticks;
    for (const QueryStats& qs : stats.queries) {
      EXPECT_EQ(qs.errors, 0u) << qs.text << ": " << qs.last_error;
    }
    return out;
  };

  Run wide = run_with_cap(16);
  Run narrow = run_with_cap(1);

  EXPECT_EQ(wide.cap, 16u);
  EXPECT_EQ(narrow.cap, 1u);
  // W=1 runs one window per tick; W=16 over a fully preloaded queue must
  // actually batch (24 ticks -> a 16-tick window plus an 8-tick one).
  EXPECT_EQ(narrow.windows, static_cast<uint64_t>(kWinHorizon));
  EXPECT_LT(wide.windows, static_cast<uint64_t>(kWinHorizon));

  ASSERT_EQ(wide.results.size(), kWinHorizon);
  ASSERT_EQ(narrow.results.size(), kWinHorizon);
  ASSERT_EQ(wide.ids, narrow.ids);
  for (size_t t = 0; t < kWinHorizon; ++t) {
    EXPECT_EQ(wide.results[t].t, t + 1);
    EXPECT_EQ(narrow.results[t].t, t + 1);
    for (size_t i = 0; i < queries.size(); ++i) {
      const double* pw = wide.results[t].Find(wide.ids[i]);
      const double* pn = narrow.results[t].Find(narrow.ids[i]);
      ASSERT_NE(pw, nullptr);
      ASSERT_NE(pn, nullptr);
      EXPECT_EQ(*pw, *pn) << queries[i] << " at t=" << t + 1;
    }
  }
  ASSERT_FALSE(wide.checkpoint.empty());
  EXPECT_EQ(wide.checkpoint, narrow.checkpoint)
      << "checkpoint bytes differ between window caps";
}

TEST(StreamRuntimeTest, SetTickCallbackWhileRunningIsSafe) {
  // Swapping the callback concurrently with the coordinator publishing
  // ticks must be race-free (this is what the TSan runtime job checks).
  EventDatabase archive;
  std::vector<StepDist> steps(40, StepDist{{"a", 0.5}});
  AddIndependentStream(&archive, "At", "Joe", steps);
  auto clone = CloneDeclarations(archive);
  ASSERT_OK(clone.status());
  auto batches = ExtractBatches(archive);
  ASSERT_OK(batches.status());
  RuntimeOptions options;
  options.num_threads = 2;
  StreamRuntime runtime(clone->get(), options);
  ASSERT_OK(runtime.Register("At('Joe', l : l = 'a')").status());
  runtime.Start();
  std::atomic<uint64_t> seen{0};
  std::thread swapper([&] {
    for (int i = 0; i < 100; ++i) {
      runtime.SetTickCallback([&](const TickResult&) {
        seen.fetch_add(1, std::memory_order_relaxed);
      });
      std::this_thread::sleep_for(1ms);
    }
  });
  for (TickBatch& b : *batches) {
    ASSERT_OK(runtime.ingest().Push(std::move(b), 10000ms));
  }
  ASSERT_TRUE(runtime.WaitForTick(40, 10000ms));
  swapper.join();
  runtime.Stop();
  EXPECT_EQ(runtime.tick(), 40u);
}

}  // namespace
}  // namespace lahar
