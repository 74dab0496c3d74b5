#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "common/serial.h"

#include "model/world.h"
#include "test_util.h"

namespace lahar {
namespace {

using ::lahar::testing::AddCertainStream;
using ::lahar::testing::AddIndependentStream;
using ::lahar::testing::AddMarkovStream;

TEST(ValueTest, KindsAndEquality) {
  Interner in;
  Value n;
  Value s = Value::Symbol(in.Intern("x"));
  Value i = Value::Int(7);
  EXPECT_TRUE(n.is_null());
  EXPECT_TRUE(s.is_symbol());
  EXPECT_TRUE(i.is_int());
  EXPECT_EQ(i.int_value(), 7);
  EXPECT_NE(s, i);
  EXPECT_EQ(Value::Int(7), i);
  EXPECT_NE(Value::Int(7), Value::Symbol(7));  // kind distinguishes
}

TEST(ValueTest, OrderingIsTotal) {
  EXPECT_LT(Value(), Value::Symbol(1));
  EXPECT_LT(Value::Symbol(1), Value::Int(0));
  EXPECT_LT(Value::Int(3), Value::Int(5));
}

TEST(ValueTest, ToStringRendersThroughInterner) {
  Interner in;
  Value s = Value::Symbol(in.Intern("Joe"));
  EXPECT_EQ(s.ToString(in), "'Joe'");
  EXPECT_EQ(Value::Int(-3).ToString(in), "-3");
  EXPECT_EQ(Value().ToString(in), "null");
}

TEST(ProbabilisticEventTest, ValidatesMass) {
  ProbabilisticEvent e;
  e.bottom_p = 0.3;
  e.outcomes.push_back({{Value::Int(1)}, 0.7});
  EXPECT_OK(e.Validate());
  e.outcomes.push_back({{Value::Int(2)}, 0.5});
  EXPECT_FALSE(e.Validate().ok());
}

TEST(StreamTest, InternTupleIsStable) {
  EventDatabase db;
  Stream s(db.interner().Intern("At"), {db.Sym("Joe")}, 1, 3, false);
  DomainIndex a = s.InternTuple({db.Sym("a")});
  DomainIndex b = s.InternTuple({db.Sym("b")});
  EXPECT_NE(a, kBottom);
  EXPECT_NE(a, b);
  EXPECT_EQ(s.InternTuple({db.Sym("a")}), a);
  EXPECT_EQ(s.LookupTuple({db.Sym("b")}), b);
  EXPECT_EQ(s.LookupTuple({db.Sym("zzz")}), Stream::kNotFound);
  EXPECT_EQ(s.domain_size(), 3u);
}

TEST(StreamTest, MarginalsAndEventAt) {
  EventDatabase db;
  StreamId id = AddIndependentStream(&db, "At", "Joe",
                                     {{{"a", 0.6}, {"b", 0.3}}, {{"a", 1.0}}});
  const Stream& s = db.stream(id);
  EXPECT_NEAR(s.ProbAt(1, s.LookupTuple({db.Sym("a")})), 0.6, 1e-12);
  EXPECT_NEAR(s.ProbAt(1, kBottom), 0.1, 1e-12);
  ProbabilisticEvent e = s.EventAt(1);
  EXPECT_OK(e.Validate());
  EXPECT_EQ(e.outcomes.size(), 2u);
  EXPECT_NEAR(e.bottom_p, 0.1, 1e-12);
}

TEST(StreamTest, RejectsBadDistribution) {
  EventDatabase db;
  Stream s(db.interner().Intern("At"), {db.Sym("Joe")}, 1, 2, false);
  s.InternTuple({db.Sym("a")});
  EXPECT_FALSE(s.SetMarginal(1, {0.5, 0.9}).ok());   // sums to 1.4
  EXPECT_FALSE(s.SetMarginal(0, {1.0, 0.0}).ok());   // t out of range
  EXPECT_FALSE(s.SetMarginal(3, {1.0, 0.0}).ok());
}

TEST(StreamTest, MarkovFinalizeChainsMarginals) {
  EventDatabase db;
  StreamId id = AddMarkovStream(&db, "At", "Joe", {"a", "b"}, 4, 0.9);
  const Stream& s = db.stream(id);
  // Uniform initial stays uniform under a symmetric kernel.
  for (Timestamp t = 1; t <= 4; ++t) {
    EXPECT_NEAR(s.ProbAt(t, 1), 0.5, 1e-12);
    EXPECT_NEAR(s.ProbAt(t, 2), 0.5, 1e-12);
  }
}

TEST(StreamTest, CptValidation) {
  EventDatabase db;
  Stream s(db.interner().Intern("At"), {db.Sym("Joe")}, 1, 3, true);
  s.InternTuple({db.Sym("a")});
  Matrix bad(2, 2, 0.4);  // rows sum to 0.8
  EXPECT_FALSE(s.SetCpt(1, bad).ok());
  Matrix wrong_shape(3, 3, 1.0 / 3);
  EXPECT_FALSE(s.SetCpt(1, wrong_shape).ok());
  EXPECT_FALSE(s.SetCpt(3, Matrix(2, 2, 0.5)).ok());  // t >= horizon
}

// SparseCptAt(t) must list, row by row and in column order, exactly the
// entries of CptAt(t) a successor walk visits: those not <= 0.
void ExpectSparseMatchesDense(const Stream& s, Timestamp t) {
  const Matrix& cpt = s.CptAt(t);
  const Stream::SparseCpt& sparse = s.SparseCptAt(t);
  ASSERT_EQ(sparse.row_begin.size(), cpt.rows() + 1);
  EXPECT_EQ(sparse.row_begin.front(), 0u);
  EXPECT_EQ(sparse.row_begin.back(), sparse.cols.size());
  EXPECT_EQ(sparse.probs.size(), sparse.cols.size());
  for (size_t r = 0; r < cpt.rows(); ++r) {
    std::vector<std::pair<uint32_t, double>> dense, listed;
    for (size_t c = 0; c < cpt.cols(); ++c) {
      if (!(cpt.At(r, c) <= 0)) {
        dense.emplace_back(static_cast<uint32_t>(c), cpt.At(r, c));
      }
    }
    for (uint32_t i = sparse.row_begin[r]; i < sparse.row_begin[r + 1];
         ++i) {
      listed.emplace_back(sparse.cols[i], sparse.probs[i]);
    }
    EXPECT_EQ(listed, dense) << "row " << r << " at t=" << t;
  }
}

TEST(StreamTest, SparseCptListsEachRowsNonzeros) {
  EventDatabase db;
  StreamId id = AddMarkovStream(&db, "At", "Joe", {"a", "b", "c"}, 3, 0.8);
  Stream& s = db.stream(id);
  // Row 1 gets an exact zero; row 2 a tiny negative entry the row-sum
  // check tolerates. Neither is listed.
  Matrix cpt = s.CptAt(1);
  cpt.At(1, 2) = 0.0;
  cpt.At(1, 3) = 0.2;
  cpt.At(2, 1) = -1e-12;
  cpt.At(2, 3) = 0.2 + 1e-12;
  ASSERT_TRUE(s.SetCpt(1, cpt).ok());
  ASSERT_TRUE(s.AppendMarkovStep(cpt).ok());
  for (Timestamp t = 1; t < s.horizon(); ++t) ExpectSparseMatchesDense(s, t);
  EXPECT_EQ(s.SparseCptAt(1).cols.size(), 8u);  // 1 + 2 + 2 + 3

  // The index is not serialized; LoadFrom rebuilds it.
  serial::Writer w;
  s.SaveTo(&w);
  serial::Reader r(w.str());
  auto loaded = Stream::LoadFrom(&r);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (Timestamp t = 1; t < s.horizon(); ++t) {
    ExpectSparseMatchesDense(*loaded, t);
    EXPECT_EQ(loaded->CptDigestAt(t), s.CptDigestAt(t));
  }
  EXPECT_EQ(s.CptDigestAt(1), s.CptDigestAt(3));  // same matrix
  EXPECT_NE(s.CptDigestAt(1), s.CptDigestAt(2));
}

TEST(StreamTest, TrajectoryProbMatchesEq1) {
  EventDatabase db;
  StreamId id = AddMarkovStream(&db, "At", "Joe", {"a", "b"}, 3, 0.8);
  const Stream& s = db.stream(id);
  // P[a, a, b] = 0.5 * 0.8 * 0.2
  std::vector<DomainIndex> traj = {0, 1, 1, 2};
  EXPECT_NEAR(s.TrajectoryProb(traj), 0.5 * 0.8 * 0.2, 1e-12);
}

TEST(StreamTest, SampleTrajectoryRespectsSupport) {
  EventDatabase db;
  StreamId id = AddCertainStream(&db, "At", "Joe", {"a", "", "b"});
  Rng rng(11);
  const Stream& s = db.stream(id);
  auto traj = s.SampleTrajectory(&rng);
  EXPECT_EQ(traj[1], s.LookupTuple({db.Sym("a")}));
  EXPECT_EQ(traj[2], kBottom);
  EXPECT_EQ(traj[3], s.LookupTuple({db.Sym("b")}));
}

TEST(DatabaseTest, SchemaRequiredForStreams) {
  EventDatabase db;
  Stream s(db.interner().Intern("Unknown"), {db.Sym("k")}, 1, 1, false);
  EXPECT_FALSE(db.AddStream(std::move(s)).ok());
}

TEST(DatabaseTest, StreamsOfTypeAndHorizon) {
  EventDatabase db;
  AddCertainStream(&db, "At", "Joe", {"a"});
  AddCertainStream(&db, "At", "Sue", {"a", "b"});
  AddCertainStream(&db, "Carries", "Joe", {"x", "y", "z"});
  EXPECT_EQ(db.StreamsOfType(db.interner().Intern("At")).size(), 2u);
  EXPECT_EQ(db.StreamsOfType(db.interner().Intern("Nope")).size(), 0u);
  EXPECT_EQ(db.horizon(), 3u);
  EXPECT_OK(db.Validate());
}

TEST(DatabaseTest, RelationsRoundTrip) {
  EventDatabase db;
  auto rel = db.DeclareRelation("Hallway", 1);
  ASSERT_TRUE(rel.ok());
  ASSERT_OK((*rel)->Insert({db.Sym("h1")}));
  EXPECT_TRUE((*rel)->Contains({db.Sym("h1")}));
  EXPECT_FALSE((*rel)->Contains({db.Sym("h2")}));
  // Redeclare with same arity returns the same relation.
  auto again = db.DeclareRelation("Hallway", 1);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *rel);
  EXPECT_FALSE(db.DeclareRelation("Hallway", 2).ok());
  EXPECT_FALSE((*rel)->Insert({db.Sym("a"), db.Sym("b")}).ok());
}

TEST(WorldTest, EnumerateCoversFullMass) {
  EventDatabase db;
  AddIndependentStream(&db, "At", "Joe", {{{"a", 0.5}, {"b", 0.5}}, {{"a", 0.3}}});
  AddMarkovStream(&db, "At", "Sue", {"a", "b"}, 2, 0.7);
  int count = 0;
  double mass = EnumerateWorlds(db, [&](const World& w, double p) {
    ++count;
    EXPECT_NEAR(WorldProb(db, w), p, 1e-12);
  });
  EXPECT_NEAR(mass, 1.0, 1e-9);
  EXPECT_GT(count, 1);
}

TEST(WorldTest, WorldEventsAtSkipsBottom) {
  EventDatabase db;
  AddCertainStream(&db, "At", "Joe", {"a", ""});
  Rng rng(1);
  World w = SampleWorld(db, &rng);
  EXPECT_EQ(WorldEventsAt(db, w, 1).size(), 1u);
  EXPECT_EQ(WorldEventsAt(db, w, 2).size(), 0u);
  Event e = WorldEventsAt(db, w, 1)[0];
  EXPECT_EQ(e.attrs.size(), 2u);  // key + value
  EXPECT_EQ(e.attrs[1], db.Sym("a"));
}

TEST(WorldTest, SampledFrequenciesMatchMarginals) {
  EventDatabase db;
  StreamId id =
      AddIndependentStream(&db, "At", "Joe", {{{"a", 0.25}, {"b", 0.5}}});
  const Stream& s = db.stream(id);
  DomainIndex a = s.LookupTuple({db.Sym("a")});
  Rng rng(42);
  int hits = 0;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    World w = SampleWorld(db, &rng);
    if (w.values[id][1] == a) ++hits;
  }
  EXPECT_NEAR(hits / double(kDraws), 0.25, 0.02);
}

TEST(DatabaseTest, TotalTuplesCountsSupport) {
  EventDatabase db;
  AddIndependentStream(&db, "At", "Joe", {{{"a", 0.5}, {"b", 0.4}}});
  // Support: a, b, and bottom (0.1) = 3 entries.
  EXPECT_EQ(db.TotalTuples(), 3u);
}

}  // namespace
}  // namespace lahar
