// Checkpoint/restore tests: the binary database snapshot round-trips field
// for field, a restored runtime continues a mixed-class workload with
// bit-identical per-tick results and re-checkpoints to the same bytes,
// truncated or byte-flipped checkpoints fail with a Status (never a crash,
// hang or oversized allocation), and a producer whose batch is rejected
// mid-stream can retry and make progress (the transactional-ingest
// guarantee end to end).
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/serial.h"
#include "engine/streaming.h"
#include "runtime/checkpoint.h"
#include "runtime/executor.h"
#include "runtime/ingest.h"
#include "runtime/replay.h"
#include "test_util.h"

namespace lahar {
namespace {

using ::lahar::testing::AddIndependentStream;
using ::lahar::testing::AddMarkovStream;
using ::lahar::testing::StepDist;
using namespace std::chrono_literals;

// A small mixed archive: two independent streams, one Markovian, one
// relation — enough to exercise every section of the snapshot.
EventDatabase BuildArchive(Timestamp horizon) {
  EventDatabase db;
  std::vector<StepDist> joe, sue;
  for (Timestamp t = 1; t <= horizon; ++t) {
    joe.push_back({{"a", 0.1 + 0.5 / t}, {"b", 0.2}});
    sue.push_back({{t % 2 == 0 ? "a" : "b", 0.6}});
  }
  AddIndependentStream(&db, "At", "Joe", joe);
  AddIndependentStream(&db, "At", "Sue", sue);
  AddMarkovStream(&db, "At", "Bob", {"a", "b", "c"}, horizon, 0.8);
  lahar::testing::AddRelation(&db, "Room", {{"a"}, {"b"}});
  return db;
}

TEST(DatabaseSnapshotTest, SaveLoadRoundTripsEveryField) {
  EventDatabase db = BuildArchive(5);
  serial::Writer w;
  ASSERT_OK(db.SaveTo(&w));
  serial::Reader r(w.str());
  auto loaded = EventDatabase::LoadFrom(&r);
  ASSERT_OK(loaded.status());
  EXPECT_TRUE(r.AtEnd());
  EventDatabase& out = **loaded;
  EXPECT_EQ(out.horizon(), db.horizon());
  EXPECT_EQ(out.num_streams(), db.num_streams());
  // Same symbol ids: queries prepared against either database agree.
  EXPECT_EQ(out.interner().Intern("Sue"), db.interner().Intern("Sue"));
  for (StreamId id = 0; id < db.num_streams(); ++id) {
    const Stream& src = db.stream(id);
    const Stream& dst = out.stream(id);
    ASSERT_EQ(dst.horizon(), src.horizon()) << "stream " << id;
    EXPECT_EQ(dst.markovian(), src.markovian());
    EXPECT_EQ(dst.domain_size(), src.domain_size());
    for (Timestamp t = 1; t <= src.horizon(); ++t) {
      // EXPECT_EQ on the vectors: bit-exact doubles, unset stays unset.
      EXPECT_EQ(dst.MarginalAt(t), src.MarginalAt(t))
          << "stream " << id << " t=" << t;
    }
  }
  const Relation* room = out.FindRelation(out.interner().Intern("Room"));
  ASSERT_NE(room, nullptr);
  EXPECT_EQ(room->size(), 2u);
  // Determinism: saving the loaded copy reproduces the exact bytes.
  serial::Writer w2;
  ASSERT_OK(out.SaveTo(&w2));
  EXPECT_EQ(w.str(), w2.str());
}

TEST(DatabaseSnapshotTest, TruncatedSnapshotFailsCleanly) {
  EventDatabase db = BuildArchive(3);
  serial::Writer w;
  ASSERT_OK(db.SaveTo(&w));
  const std::string bytes = w.str();
  for (size_t cut : {size_t{0}, size_t{4}, bytes.size() / 2,
                     bytes.size() - 1}) {
    serial::Reader r(std::string_view(bytes).substr(0, cut));
    EXPECT_FALSE(EventDatabase::LoadFrom(&r).ok()) << "cut=" << cut;
  }
}

TEST(DatabaseSnapshotTest, CorruptSizesFailWithoutAllocating) {
  // One 3-value Markov stream; each case overwrites size fields of its
  // snapshot. Unchecked, the first would allocate 2^62 doubles, the second
  // would hand the engines an empty CPT to index, and the third would size
  // per-tick tables by a horizon the data does not have.
  EventDatabase db;
  AddMarkovStream(&db, "At", "Bob", {"a", "b", "c"}, 3, 0.8);
  serial::Writer w;
  ASSERT_OK(db.SaveTo(&w));
  const std::string bytes = w.str();
  // The CPT section closes the (only) stream, and the database's u32
  // horizon follows it. CPT 0 is the empty placeholder; 1..horizon-1 are
  // the real ones.
  const Stream& s = db.stream(0);
  size_t cpt_bytes = 16;
  for (Timestamp t = 1; t < s.horizon(); ++t) {
    cpt_bytes += 16 + 8 * s.CptAt(t).rows() * s.CptAt(t).cols();
  }
  const size_t cpt0 = bytes.size() - 4 - cpt_bytes;
  const uint64_t huge = uint64_t{1} << 31, zero = 0;
  const uint32_t horizon = 1000;
  const struct {
    const char* what;
    size_t offset;
    const void* value;
    size_t width;
    int count;  // consecutive fields overwritten
  } cases[] = {
      {"first CPT dims 2^31 x 2^31", cpt0, &huge, 8, 2},
      {"second CPT dims 0 x 0", cpt0 + 16, &zero, 8, 2},
      {"database horizon past its streams", bytes.size() - 4, &horizon, 4, 1},
  };
  for (const auto& c : cases) {
    std::string bad = bytes;
    for (int k = 0; k < c.count; ++k) {
      std::memcpy(&bad[c.offset + k * c.width], c.value, c.width);
    }
    serial::Reader r(bad);
    auto loaded = EventDatabase::LoadFrom(&r);
    EXPECT_FALSE(loaded.ok()) << c.what;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << c.what;
  }
}

// Queries covering every exact session class the runtime serves: Regular
// (single grounding), a sequence over a Markov stream, and Extended Regular
// (one chain per tag).
const std::vector<std::string> kQueries = {
    "At('Joe', l : l = 'a')",
    "At('Bob', l1 : l1 = 'a'); At('Bob', l2 : l2 = 'b')",
    "At(x, l : l = 'b')",
};

// Runs `archive` through a fresh runtime from tick 1 to `horizon`,
// checkpointing at `checkpoint_at` (0 = never), and returns (per-tick
// results, checkpoint bytes).
struct RunOutput {
  std::vector<TickResult> results;
  std::string snapshot;
};

RunOutput RunWithCheckpoint(const EventDatabase& archive,
                            Timestamp checkpoint_at,
                            const std::vector<std::string>& queries = kQueries) {
  RunOutput out;
  auto clone = CloneDeclarations(archive);
  EXPECT_TRUE(clone.ok());
  auto batches = ExtractBatches(archive);
  EXPECT_TRUE(batches.ok());
  RuntimeOptions options;
  options.num_threads = 2;
  StreamRuntime runtime(clone->get(), options);
  for (const std::string& q : queries) {
    EXPECT_TRUE(runtime.Register(q).ok());
  }
  runtime.SetTickCallback([&](const TickResult& r) {
    out.results.push_back(r);
    if (checkpoint_at != 0 && r.t == checkpoint_at) {
      auto snap = runtime.Checkpoint();  // callback-safe by contract
      EXPECT_TRUE(snap.ok()) << snap.status().ToString();
      if (snap.ok()) out.snapshot = *snap;
    }
  });
  runtime.Start();
  for (TickBatch& b : *batches) {
    EXPECT_OK(runtime.ingest().Push(std::move(b), 10000ms));
  }
  EXPECT_TRUE(runtime.WaitForTick(archive.horizon(), 10000ms));
  runtime.Stop();
  return out;
}

TEST(CheckpointRoundTripTest, RestoredRuntimeContinuesBitIdentically) {
  const Timestamp kHorizon = 8;
  const Timestamp kCheckpointAt = 4;
  EventDatabase archive = BuildArchive(kHorizon);

  // Uninterrupted run: the reference per-tick probabilities.
  RunOutput uninterrupted = RunWithCheckpoint(archive, 0);
  ASSERT_EQ(uninterrupted.results.size(), kHorizon);

  // Interrupted run: same workload, checkpoint mid-stream.
  RunOutput interrupted = RunWithCheckpoint(archive, kCheckpointAt);
  ASSERT_EQ(interrupted.results.size(), kHorizon);
  ASSERT_FALSE(interrupted.snapshot.empty());

  // Restore into a fresh runtime over a fresh declarations clone and feed
  // it the remaining ticks only.
  auto clone = CloneDeclarations(archive);
  ASSERT_OK(clone.status());
  StreamRuntime resumed(clone->get(), RuntimeOptions{});
  ASSERT_OK(resumed.Restore(interrupted.snapshot));
  EXPECT_EQ(resumed.tick(), kCheckpointAt);
  RuntimeStats restored_stats = resumed.Stats();
  ASSERT_EQ(restored_stats.queries.size(), kQueries.size());

  std::vector<TickResult> tail;
  resumed.SetTickCallback([&](const TickResult& r) { tail.push_back(r); });
  resumed.Start();
  auto batches = ExtractBatches(archive);
  ASSERT_OK(batches.status());
  for (TickBatch& b : *batches) {
    if (b.t <= kCheckpointAt) continue;  // history the checkpoint covers
    ASSERT_OK(resumed.ingest().Push(std::move(b), 10000ms));
  }
  ASSERT_TRUE(resumed.WaitForTick(kHorizon, 10000ms));
  resumed.Stop();

  ASSERT_EQ(tail.size(), kHorizon - kCheckpointAt);
  for (size_t i = 0; i < tail.size(); ++i) {
    const TickResult& got = tail[i];
    const TickResult& want = uninterrupted.results[kCheckpointAt + i];
    ASSERT_EQ(got.t, want.t);
    ASSERT_EQ(got.probs.size(), want.probs.size()) << "t=" << got.t;
    for (size_t q = 0; q < want.probs.size(); ++q) {
      EXPECT_EQ(got.probs[q].first, want.probs[q].first);
      // Bit-identical, not approximately equal: restore is exact.
      EXPECT_EQ(got.probs[q].second, want.probs[q].second)
          << "query " << want.probs[q].first << " at t=" << got.t;
    }
  }
}

TEST(CheckpointRoundTripTest, SafeSessionRestoresDirectStateBitIdentically) {
  // A safe plan's session serializes its incremental evaluator state
  // directly into the checkpoint (frontier chains, keyframes, witness
  // index) — no replay. The restored session must continue bit for bit,
  // including across witness gaps and past the restore point's keyframe.
  const Timestamp kHorizon = 10;
  const Timestamp kCheckpointAt = 6;
  const std::vector<std::string> safe_queries = {
      "R(x, u1); S(x, u2); T('a', y)"};

  EventDatabase archive;
  std::vector<StepDist> r1, r2, s1, s2, tt;
  for (Timestamp t = 1; t <= kHorizon; ++t) {
    r1.push_back({{"u", 0.1 + 0.07 * t}});
    r2.push_back(t % 3 == 0 ? StepDist{} : StepDist{{"u", 0.5}});
    s1.push_back({{"v", 0.8 - 0.05 * t}});
    s2.push_back({{"v", 0.3}});
    tt.push_back(t % 4 == 2 ? StepDist{{"w", 0.6}} : StepDist{});
  }
  AddIndependentStream(&archive, "R", "k1", r1);
  AddIndependentStream(&archive, "R", "k2", r2);
  AddIndependentStream(&archive, "S", "k1", s1);
  AddIndependentStream(&archive, "S", "k2", s2);
  AddIndependentStream(&archive, "T", "a", tt);

  RunOutput uninterrupted = RunWithCheckpoint(archive, 0, safe_queries);
  ASSERT_EQ(uninterrupted.results.size(), kHorizon);
  RunOutput interrupted =
      RunWithCheckpoint(archive, kCheckpointAt, safe_queries);
  ASSERT_FALSE(interrupted.snapshot.empty());

  auto clone = CloneDeclarations(archive);
  ASSERT_OK(clone.status());
  StreamRuntime resumed(clone->get(), RuntimeOptions{});
  ASSERT_OK(resumed.Restore(interrupted.snapshot));
  EXPECT_EQ(resumed.tick(), kCheckpointAt);

  std::vector<TickResult> tail;
  resumed.SetTickCallback([&](const TickResult& r) { tail.push_back(r); });
  resumed.Start();
  auto batches = ExtractBatches(archive);
  ASSERT_OK(batches.status());
  for (TickBatch& b : *batches) {
    if (b.t <= kCheckpointAt) continue;
    ASSERT_OK(resumed.ingest().Push(std::move(b), 10000ms));
  }
  ASSERT_TRUE(resumed.WaitForTick(kHorizon, 10000ms));
  resumed.Stop();

  ASSERT_EQ(tail.size(), kHorizon - kCheckpointAt);
  for (size_t i = 0; i < tail.size(); ++i) {
    const TickResult& got = tail[i];
    const TickResult& want = uninterrupted.results[kCheckpointAt + i];
    ASSERT_EQ(got.t, want.t);
    ASSERT_EQ(got.probs.size(), want.probs.size());
    for (size_t q = 0; q < want.probs.size(); ++q) {
      EXPECT_EQ(got.probs[q].second, want.probs[q].second)
          << "t=" << got.t;
    }
  }
}

TEST(CheckpointRoundTripTest, RestoreGuardsBadInput) {
  EventDatabase archive = BuildArchive(3);
  auto clone = CloneDeclarations(archive);
  ASSERT_OK(clone.status());
  StreamRuntime runtime(clone->get(), RuntimeOptions{});
  EXPECT_FALSE(runtime.Restore("garbage").ok());
  serial::Writer w;
  w.U32(kCheckpointMagic);
  w.U32(kCheckpointVersion + 1);
  EXPECT_FALSE(runtime.Restore(w.str()).ok());  // future version
  // A started runtime refuses to restore.
  auto clone2 = CloneDeclarations(archive);
  ASSERT_OK(clone2.status());
  RunOutput run = RunWithCheckpoint(archive, 2);
  ASSERT_FALSE(run.snapshot.empty());
  StreamRuntime started(clone2->get(), RuntimeOptions{});
  started.Start();
  EXPECT_FALSE(started.Restore(run.snapshot).ok());
  started.Stop();
}

// BuildArchive plus three independent streams a safe plan can serve (the
// Markovian one sends At-queries of the safe class to the sampler).
EventDatabase BuildMixedArchive(Timestamp horizon) {
  EventDatabase db = BuildArchive(horizon);
  std::vector<StepDist> r, s, t;
  for (Timestamp i = 1; i <= horizon; ++i) {
    r.push_back({{"u", 0.1 + 0.07 * i}});
    s.push_back({{"v", 0.8 - 0.05 * i}});
    t.push_back(i % 2 == 0 ? StepDist{{"w", 0.6}} : StepDist{});
  }
  AddIndependentStream(&db, "R", "k1", r);
  AddIndependentStream(&db, "S", "k1", s);
  AddIndependentStream(&db, "T", "a", t);
  return db;
}

// Every query class in one runtime: Regular, Extended Regular and Safe
// sessions restore from direct state; the Unsafe query's sampler (last, so
// truncated snapshots rarely reach it) rebuilds by replaying the prefix.
const std::vector<std::string> kMixedQueries = {
    kQueries[0], kQueries[1], kQueries[2],
    "R(x, u1); S(x, u2); T('a', y)",
    "(At(x, l1); At(y, l2)) WHERE l1 = l2",
};

// Restores `snapshot` into a fresh runtime over a clone of `archive`. The
// sampler's sample count only shapes the replayed state, never the
// snapshot's bytes, so a small one keeps the fuzz loop fast.
Status RestoreFresh(const EventDatabase& archive, std::string_view snapshot) {
  auto clone = CloneDeclarations(archive);
  if (!clone.ok()) return clone.status();
  RuntimeOptions options;
  options.session.sampling.num_samples = 8;
  StreamRuntime runtime(clone->get(), options);
  return runtime.Restore(snapshot);
}

TEST(CheckpointRoundTripTest, RestoreThenCheckpointReproducesBytes) {
  // Checkpointed at the last tick, where the window ends too, so every
  // session that can saves its state directly.
  EventDatabase archive = BuildMixedArchive(4);
  RunOutput run = RunWithCheckpoint(archive, 4, kMixedQueries);
  ASSERT_FALSE(run.snapshot.empty());
  auto clone = CloneDeclarations(archive);
  ASSERT_OK(clone.status());
  StreamRuntime restored(clone->get(), RuntimeOptions{});
  ASSERT_OK(restored.Restore(run.snapshot));
  RuntimeStats stats = restored.Stats();
  ASSERT_EQ(stats.queries.size(), kMixedQueries.size());
  EXPECT_EQ(stats.queries[3].engine, "SafePlan");
  EXPECT_EQ(stats.queries[4].engine, "Sampling");
  auto again = restored.Checkpoint();
  ASSERT_OK(again.status());
  EXPECT_EQ(*again, run.snapshot);
}

TEST(CheckpointFuzzTest, TruncatedOrFlippedCheckpointsFailCleanly) {
  EventDatabase archive = BuildMixedArchive(4);
  RunOutput run = RunWithCheckpoint(archive, 4, kMixedQueries);
  const std::string& snapshot = run.snapshot;
  ASSERT_FALSE(snapshot.empty());
  ASSERT_OK(RestoreFresh(archive, snapshot));
  // Every proper prefix is short of something the layout requires.
  for (size_t cut = 0; cut < snapshot.size(); ++cut) {
    EXPECT_FALSE(
        RestoreFresh(archive, std::string_view(snapshot).substr(0, cut)).ok())
        << "cut=" << cut;
  }
  EXPECT_FALSE(RestoreFresh(archive, snapshot + '\0').ok());  // trailing byte
  // Single-byte flips: a flip may land in a probability and still restore,
  // so only the absence of a crash, hang or sanitizer report is asserted
  // per flip.
  Rng rng(16);
  size_t failed = 0;
  for (int i = 0; i < 1000; ++i) {
    std::string bad = snapshot;
    const size_t at = rng.Below(bad.size());
    bad[at] ^= static_cast<char>(1 + rng.Below(255));
    failed += RestoreFresh(archive, bad).ok() ? 0 : 1;
  }
  EXPECT_GT(failed, 0u);
}

TEST(IngestFaultInjectionTest, RejectedBatchRetriesWithoutWedgeOrDuplicates) {
  // A producer sends tick 2 with a malformed update for one stream: the
  // whole batch must be rejected (no half-applied horizons), and the
  // corrected retry must apply exactly once and un-wedge the pipeline.
  EventDatabase archive = BuildArchive(4);
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
  options.num_threads = 1;
  options.reorder_window = 0;  // strict: the fault surfaces immediately
  StreamRuntime runtime(clone->get(), options);
  auto id = runtime.Register(query);
  ASSERT_OK(id.status());
  runtime.Start();

  ASSERT_OK(runtime.ingest().Push(std::move((*batches)[0]), 10000ms));
  ASSERT_TRUE(runtime.WaitForTick(1, 10000ms));

  // Fault: tick 2's batch with stream 0's marginal corrupted (sums to 1.8).
  auto faulty = ExtractBatches(archive);
  ASSERT_OK(faulty.status());
  TickBatch bad = std::move((*faulty)[1]);
  ASSERT_FALSE(bad.updates.empty());
  bad.updates[0].marginal = {0.9, 0.9, 0.0};
  ASSERT_OK(runtime.ingest().Push(std::move(bad), 10000ms));

  // The rejection is observable and nothing advanced.
  for (int i = 0; i < 200; ++i) {
    if (runtime.Stats().batches_rejected > 0) break;
    std::this_thread::sleep_for(5ms);
  }
  RuntimeStats mid = runtime.Stats();
  EXPECT_EQ(mid.batches_rejected, 1u);
  EXPECT_FALSE(mid.last_ingest_error.empty());
  EXPECT_EQ(mid.tick, 1u);

  // Retry with the pristine batch, then stream the rest: everything
  // applies exactly once and the results match the uninterrupted baseline.
  for (size_t i = 1; i < batches->size(); ++i) {
    ASSERT_OK(runtime.ingest().Push(std::move((*batches)[i]), 10000ms));
  }
  ASSERT_TRUE(runtime.WaitForTick(archive.horizon(), 10000ms));
  runtime.Stop();
  RuntimeStats stats = runtime.Stats();
  EXPECT_EQ(stats.tick, archive.horizon());
  EXPECT_EQ(stats.batches_applied, 4u);
  EXPECT_EQ(stats.batches_rejected, 1u);
  auto latest = runtime.Latest();
  ASSERT_NE(latest, nullptr);
  const double* p = latest->Find(*id);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(*p, expected.back());
}

}  // namespace
}  // namespace lahar
