#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/interner.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/serial.h"
#include "common/status.h"
#include "test_util.h"

namespace lahar {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad arg");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad arg");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad arg");
}

TEST(StatusTest, AllConstructorsSetCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::UnsafeQuery("x").code(), StatusCode::kUnsafeQuery);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("gone"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> Doubler(Result<int> in) {
  LAHAR_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_EQ(Doubler(Status::Internal("boom")).status().code(),
            StatusCode::kInternal);
}

TEST(InternerTest, EmptyStringIsIdZero) {
  Interner in;
  EXPECT_EQ(in.Intern(""), 0u);
}

TEST(InternerTest, InternIsIdempotentAndDense) {
  Interner in;
  SymbolId a = in.Intern("alpha");
  SymbolId b = in.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(in.Intern("alpha"), a);
  EXPECT_EQ(in.Name(a), "alpha");
  EXPECT_EQ(in.Name(b), "beta");
  EXPECT_EQ(in.size(), 3u);  // "", alpha, beta
}

TEST(InternerTest, LookupDoesNotIntern) {
  Interner in;
  EXPECT_EQ(in.Lookup("missing"), Interner::kNotFound);
  EXPECT_EQ(in.size(), 1u);
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, BelowCoversRange) {
  Rng rng(2);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Below(5));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.rbegin(), 4u);
}

TEST(RngTest, CategoricalMatchesWeights) {
  Rng rng(3);
  std::vector<double> w = {0.1, 0.6, 0.3};
  std::vector<int> counts(3, 0);
  const int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) counts[rng.Categorical(w)]++;
  EXPECT_NEAR(counts[0] / double(kDraws), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / double(kDraws), 0.6, 0.02);
  EXPECT_NEAR(counts[2] / double(kDraws), 0.3, 0.02);
}

TEST(RngTest, CategoricalAllZeroReturnsSize) {
  Rng rng(4);
  std::vector<double> w = {0.0, 0.0};
  EXPECT_EQ(rng.Categorical(w), w.size());
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(5);
  Rng b = a.Split();
  EXPECT_NE(a.Next(), b.Next());
}

TEST(MatrixTest, MultiplyIdentity) {
  Matrix id(2, 2);
  id.At(0, 0) = id.At(1, 1) = 1.0;
  Matrix m(2, 2);
  m.At(0, 0) = 1;
  m.At(0, 1) = 2;
  m.At(1, 0) = 3;
  m.At(1, 1) = 4;
  Matrix r = m.Multiply(id);
  EXPECT_DOUBLE_EQ(r.At(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(r.At(1, 0), 3.0);
}

TEST(MatrixTest, LeftMultiplyIsRowVectorTimesMatrix) {
  Matrix m(2, 3);
  m.At(0, 0) = 1;
  m.At(0, 2) = 2;
  m.At(1, 1) = 3;
  std::vector<double> v = {2.0, 5.0};
  std::vector<double> r = m.LeftMultiply(v);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_DOUBLE_EQ(r[0], 2.0);
  EXPECT_DOUBLE_EQ(r[1], 15.0);
  EXPECT_DOUBLE_EQ(r[2], 4.0);
}

TEST(MatrixTest, LeftMultiplyIntoMatchesLeftMultiply) {
  Matrix m(3, 2);
  m.At(0, 0) = 0.5;
  m.At(0, 1) = 0.5;
  m.At(1, 0) = 0.25;
  m.At(2, 1) = 1.0;
  std::vector<double> v = {0.1, 0.7, 0.2};
  std::vector<double> expected = m.LeftMultiply(v);
  std::vector<double> out;
  m.LeftMultiplyInto(v, &out);
  ASSERT_EQ(out.size(), expected.size());
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], expected[i]);
}

TEST(MatrixTest, LeftMultiplyIntoReusesAndOverwritesOutput) {
  Matrix m(2, 2);
  m.At(0, 0) = 1;
  m.At(1, 1) = 2;
  std::vector<double> v = {3.0, 4.0};
  std::vector<double> out = {9.0, 9.0, 9.0};  // stale, larger than cols()
  m.LeftMultiplyInto(v, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], 3.0);
  EXPECT_DOUBLE_EQ(out[1], 8.0);
}

TEST(MatrixTest, NormalizeRows) {
  Matrix m(2, 2);
  m.At(0, 0) = 2;
  m.At(0, 1) = 2;
  // Row 1 stays all-zero.
  m.NormalizeRows();
  EXPECT_DOUBLE_EQ(m.At(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(m.At(1, 0), 0.0);
}

TEST(MatrixTest, SumAndNormalizeVector) {
  std::vector<double> v = {1.0, 3.0};
  EXPECT_DOUBLE_EQ(Sum(v), 4.0);
  Normalize(&v);
  EXPECT_DOUBLE_EQ(v[0], 0.25);
  EXPECT_DOUBLE_EQ(v[1], 0.75);
}

// The serial encoding pinned to literal bytes: checkpoints written by one
// build must stay readable, byte for byte, by the next.
std::string Bytes(std::initializer_list<int> bytes) {
  std::string out;
  for (int b : bytes) out.push_back(static_cast<char>(b));
  return out;
}

double FromBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

uint64_t ToBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

TEST(SerialTest, FixedWidthValuesAreLittleEndian) {
  serial::Writer w;
  w.U8(0xAB);
  EXPECT_EQ(w.str(), Bytes({0xAB}));
  w = serial::Writer();
  w.U32(0x04030201U);
  EXPECT_EQ(w.str(), Bytes({1, 2, 3, 4}));
  w = serial::Writer();
  w.U64(0x0807060504030201ULL);
  EXPECT_EQ(w.str(), Bytes({1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(SerialTest, DoublesAreTheirIeeeBits) {
  const struct {
    double value;
    std::string bytes;
  } cases[] = {
      {1.0, Bytes({0, 0, 0, 0, 0, 0, 0xF0, 0x3F})},
      {-0.0, Bytes({0, 0, 0, 0, 0, 0, 0, 0x80})},
      // A quiet NaN with a payload: the payload must survive.
      {FromBits(0x7FF8000000000123ULL),
       Bytes({0x23, 0x01, 0, 0, 0, 0, 0xF8, 0x7F})},
      // The smallest denormal.
      {std::numeric_limits<double>::denorm_min(),
       Bytes({1, 0, 0, 0, 0, 0, 0, 0})},
  };
  for (const auto& c : cases) {
    serial::Writer w;
    w.F64(c.value);
    EXPECT_EQ(w.str(), c.bytes);
    serial::Reader r(w.str());
    double back = 0;
    ASSERT_OK(r.F64(&back));
    EXPECT_EQ(ToBits(back), ToBits(c.value));
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(SerialTest, LengthPrefixedAndBulkLayouts) {
  const std::string one = Bytes({0, 0, 0, 0, 0, 0, 0xF0, 0x3F});
  const std::string minus_2_5 = Bytes({0, 0, 0, 0, 0, 0, 0x04, 0xC0});
  serial::Writer w;
  w.Str("ab");
  EXPECT_EQ(w.str(), Bytes({2, 0, 0, 0, 0, 0, 0, 0, 'a', 'b'}));
  w = serial::Writer();
  w.DoubleVec({1.0, -2.5});
  EXPECT_EQ(w.str(), Bytes({2, 0, 0, 0, 0, 0, 0, 0}) + one + minus_2_5);
  w = serial::Writer();
  const double pair[] = {1.0, -2.5};
  w.F64s(pair, 2);  // no length prefix
  EXPECT_EQ(w.str(), one + minus_2_5);
  w = serial::Writer();
  w.DoubleVec({});
  EXPECT_EQ(w.str(), Bytes({0, 0, 0, 0, 0, 0, 0, 0}));
  // A Str written in place, length back-patched, is the same bytes.
  w = serial::Writer();
  const size_t at = w.BeginStr();
  w.U8('a');
  w.U8('b');
  w.EndStr(at);
  EXPECT_EQ(w.str(), Bytes({2, 0, 0, 0, 0, 0, 0, 0, 'a', 'b'}));
}

// Every Writer call, in one sequence, for the counting and real writers.
void WriteEverything(serial::Writer* w) {
  const double many[] = {0.5, 0.25, 0.125};
  w->U8(7);
  w->U32(9);
  w->U64(11);
  w->F64(-0.0);
  w->F64s(many, 3);
  w->F64s(nullptr, 0);
  w->Str("hello");
  w->DoubleVec({1.0, 2.0});
  const size_t at = w->BeginStr();
  w->Str("nested");
  w->EndStr(at);
}

TEST(SerialTest, CountingWriterSizeMatchesRealWriter) {
  serial::Writer counter = serial::Writer::Counting();
  WriteEverything(&counter);
  serial::Writer w;
  w.Reserve(counter.size());
  WriteEverything(&w);
  EXPECT_EQ(counter.size(), w.size());
  EXPECT_EQ(counter.size(), 1 + 4 + 8 + 8 + 24 + 13 + 24 + 22u);
  EXPECT_TRUE(counter.str().empty());
  const std::string copy = w.str();
  EXPECT_EQ(std::move(w).Take(), copy);
}

TEST(SerialTest, ReaderRoundTripsEveryWriterCall) {
  serial::Writer w;
  WriteEverything(&w);
  serial::Reader r(w.str());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double f = 1;
  double many[3] = {};
  std::string s;
  std::vector<double> v;
  std::string_view nested;
  ASSERT_OK(r.U8(&u8));
  ASSERT_OK(r.U32(&u32));
  ASSERT_OK(r.U64(&u64));
  ASSERT_OK(r.F64(&f));
  ASSERT_OK(r.F64s(many, 3));
  ASSERT_OK(r.F64s(nullptr, 0));
  ASSERT_OK(r.Str(&s));
  ASSERT_OK(r.DoubleVec(&v));
  ASSERT_OK(r.StrView(&nested));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 9u);
  EXPECT_EQ(u64, 11u);
  EXPECT_EQ(ToBits(f), ToBits(-0.0));
  EXPECT_EQ(many[2], 0.125);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(v, (std::vector<double>{1.0, 2.0}));
  serial::Reader inner(nested);
  ASSERT_OK(inner.Str(&s));
  EXPECT_EQ(s, "nested");
}

TEST(SerialTest, TruncatedAndWrappingReadsFailCleanly) {
  const std::string three = Bytes({1, 2, 3});
  serial::Reader short_u32(three);
  uint32_t u32 = 0;
  EXPECT_FALSE(short_u32.U32(&u32).ok());
  EXPECT_EQ(short_u32.remaining(), 3u);

  // A count whose byte size `len * 8` wraps uint64 to 8 — exactly the
  // bytes present — must still be refused.
  const uint64_t wrapping = (uint64_t{1} << 61) + 1;
  serial::Writer w;
  w.U64(wrapping);
  w.F64(1.0);
  serial::Reader vec(w.str());
  std::vector<double> v;
  EXPECT_FALSE(vec.DoubleVec(&v).ok());
  EXPECT_TRUE(v.empty());

  double out[1] = {0};
  serial::Reader bulk(w.str());
  uint64_t skip = 0;
  ASSERT_OK(bulk.U64(&skip));
  EXPECT_FALSE(bulk.F64s(out, wrapping).ok());
  EXPECT_EQ(bulk.remaining(), 8u);  // nothing consumed
  ASSERT_OK(bulk.F64s(out, 1));
  EXPECT_EQ(out[0], 1.0);

  const std::string short_str = Bytes({9, 0, 0, 0, 0, 0, 0, 0, 'a'});
  serial::Reader str(short_str);
  std::string s;
  EXPECT_FALSE(str.Str(&s).ok());
}

}  // namespace
}  // namespace lahar
