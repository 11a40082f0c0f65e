// Unit tests for src/common: status/result, CRC-32C, serialization,
// histograms, RNG determinism.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/stats.h"
#include "common/status.h"

namespace ods {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s(ErrorCode::kNotFound, "region r1");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.message(), "region r1");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: region r1");
}

TEST(StatusTest, EqualityComparesCodeOnly) {
  EXPECT_EQ(Status(ErrorCode::kTimedOut, "a"), Status(ErrorCode::kTimedOut, "b"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status(ErrorCode::kUnavailable, "down"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kUnavailable);
}

TEST(ResultTest, MoveOnlyPayload) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  auto p = std::move(r).value();
  EXPECT_EQ(*p, 7);
}

TEST(ErrorCodeTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
    EXPECT_NE(ErrorCodeName(static_cast<ErrorCode>(c)), "UNKNOWN");
  }
}

// ----------------------------------------------------------------- CRC32

TEST(Crc32Test, KnownVector) {
  // CRC-32C("123456789") = 0xE3069283 (iSCSI test vector).
  const char* data = "123456789";
  EXPECT_EQ(Crc32c(data, 9), 0xE3069283u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32c(nullptr, 0), 0u); }

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::vector<std::byte> buf(257);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::byte>(i * 31);
  }
  const std::uint32_t good = Crc32c(buf);
  for (std::size_t bit = 0; bit < buf.size() * 8; bit += 97) {
    buf[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    EXPECT_NE(Crc32c(buf), good) << "undetected flip at bit " << bit;
    buf[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
  }
  EXPECT_EQ(Crc32c(buf), good);
}

TEST(Crc32Test, ChainedEqualsWhole) {
  std::vector<std::byte> buf(100);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::byte>(i);
  }
  const std::uint32_t whole = Crc32c(buf);
  const std::uint32_t part1 =
      Crc32c(std::span<const std::byte>(buf.data(), 37));
  const std::uint32_t chained =
      Crc32c(std::span<const std::byte>(buf.data() + 37, 63), part1);
  EXPECT_EQ(chained, whole);
}

// Bit-at-a-time CRC-32C straight from the definition: the reference the
// dispatched (hardware or slicing-by-8) implementations are held to.
std::uint32_t BitwiseCrc32c(std::span<const std::byte> data,
                            std::uint32_t seed = 0) {
  std::uint32_t crc = ~seed;
  for (std::byte b : data) {
    crc ^= static_cast<std::uint32_t>(b);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
  }
  return ~crc;
}

std::vector<std::byte> RandomBytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.Next());
  return out;
}

TEST(Crc32Test, ImplementationsAgreeOnEveryLengthAndAlignment) {
  // 8 bytes of slack so every (offset, length) pair fits; the word loops
  // see every misalignment and every tail length 0-7.
  const auto buf = RandomBytes(64 * 1024 + 8, 11);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 300; ++n) lengths.push_back(n);
  lengths.push_back(4 * 1024);
  lengths.push_back(64 * 1024);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t n : lengths) {
      const std::span<const std::byte> s(buf.data() + off, n);
      const std::uint32_t want = BitwiseCrc32c(s);
      EXPECT_EQ(Crc32c(s), want) << "offset " << off << " length " << n;
      EXPECT_EQ(detail::Crc32cPortable(s), want)
          << "offset " << off << " length " << n;
    }
  }
}

TEST(Crc32Test, ChainedSeedsAgreeAcrossWordBoundaries) {
  // Crc32c(b, Crc32c(a)) == Crc32c(a || b) for every split of a buffer
  // that straddles the 8-byte word loop, in both implementations.
  const auto buf = RandomBytes(40, 12);
  const std::span<const std::byte> all(buf);
  const std::uint32_t whole = BitwiseCrc32c(all);
  for (std::size_t cut = 0; cut <= buf.size(); ++cut) {
    const auto a = all.first(cut);
    const auto b = all.subspan(cut);
    EXPECT_EQ(Crc32c(b, Crc32c(a)), whole) << "cut " << cut;
    EXPECT_EQ(detail::Crc32cPortable(b, detail::Crc32cPortable(a)), whole)
        << "cut " << cut;
    EXPECT_EQ(BitwiseCrc32c(b, BitwiseCrc32c(a)), whole) << "cut " << cut;
  }
}

TEST(Crc32Test, PortableKnownVector) {
  const char* data = "123456789";
  EXPECT_EQ(detail::Crc32cPortable(
                std::as_bytes(std::span<const char>(data, 9))),
            0xE3069283u);
}

// ------------------------------------------------------------- Serialize

TEST(SerializeTest, RoundTripScalars) {
  Serializer s;
  s.PutU8(0xAB);
  s.PutU16(0xBEEF);
  s.PutU32(0xDEADBEEFu);
  s.PutU64(0x0123456789ABCDEFull);
  s.PutI64(-42);
  s.PutBool(true);

  Deserializer d(s.bytes());
  std::uint8_t u8 = 0;
  std::uint16_t u16 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  std::int64_t i64 = 0;
  bool b = false;
  EXPECT_TRUE(d.GetU8(u8));
  EXPECT_TRUE(d.GetU16(u16));
  EXPECT_TRUE(d.GetU32(u32));
  EXPECT_TRUE(d.GetU64(u64));
  EXPECT_TRUE(d.GetI64(i64));
  EXPECT_TRUE(d.GetBool(b));
  EXPECT_TRUE(d.ok());
  EXPECT_EQ(d.remaining(), 0u);
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0xBEEF);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i64, -42);
  EXPECT_TRUE(b);
}

TEST(SerializeTest, LittleEndianOnWire) {
  Serializer s;
  s.PutU32(0x01020304u);
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s.bytes()[0], std::byte{0x04});
  EXPECT_EQ(s.bytes()[3], std::byte{0x01});
}

TEST(SerializeTest, StringAndBlobRoundTrip) {
  Serializer s;
  s.PutString("hot-stock");
  std::vector<std::byte> blob = {std::byte{1}, std::byte{2}, std::byte{3}};
  s.PutBlob(blob);

  Deserializer d(s.bytes());
  std::string str;
  std::vector<std::byte> out;
  EXPECT_TRUE(d.GetString(str));
  EXPECT_TRUE(d.GetBlob(out));
  EXPECT_EQ(str, "hot-stock");
  EXPECT_EQ(out, blob);
}

TEST(SerializeTest, TruncationLatchesFailure) {
  Serializer s;
  s.PutU32(7);
  Deserializer d(s.bytes());
  std::uint64_t v = 0;
  EXPECT_FALSE(d.GetU64(v));  // only 4 bytes available
  EXPECT_FALSE(d.ok());
  std::uint32_t w = 0;
  EXPECT_FALSE(d.GetU32(w));  // failure latched; later reads fail too
}

TEST(SerializeTest, EnumRoundTrip) {
  enum class Kind : std::uint32_t { kA = 3, kB = 9 };
  Serializer s;
  s.PutEnum(Kind::kB);
  Deserializer d(s.bytes());
  Kind k = Kind::kA;
  EXPECT_TRUE(d.GetEnum(k));
  EXPECT_EQ(k, Kind::kB);
}

// ----------------------------------------------------------------- Stats

TEST(HistogramTest, EmptyHistogram) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0u);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(HistogramTest, SingleSample) {
  LatencyHistogram h;
  h.Record(15'000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 15'000u);
  EXPECT_EQ(h.max(), 15'000u);
  EXPECT_EQ(h.mean(), 15'000.0);
  EXPECT_EQ(h.Percentile(0.5), 15'000u);
}

TEST(HistogramTest, PercentileWithinQuantizationError) {
  LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 100'000; ++v) h.Record(v);
  const auto p50 = static_cast<double>(h.Percentile(0.50));
  const auto p99 = static_cast<double>(h.Percentile(0.99));
  EXPECT_NEAR(p50, 50'000.0, 50'000.0 * 0.07);
  EXPECT_NEAR(p99, 99'000.0, 99'000.0 * 0.07);
}

TEST(HistogramTest, MergeCombines) {
  LatencyHistogram a, b;
  a.Record(10);
  b.Record(1'000'000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1'000'000u);
}

TEST(HistogramTest, SmallValuesAreExact) {
  LatencyHistogram h;
  for (std::uint64_t v = 0; v < 16; ++v) h.Record(v);
  EXPECT_EQ(h.Percentile(0.0), 0u);
  EXPECT_EQ(h.max(), 15u);
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BelowIsInRange) {
  Rng r(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(r.Below(17), 17u);
  }
  EXPECT_EQ(r.Below(0), 0u);
  EXPECT_EQ(r.Below(1), 0u);
}

TEST(RngTest, BelowCoversAllResidues) {
  Rng r(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.Below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng r(5);
  for (int i = 0; i < 10'000; ++i) {
    const double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ForkGivesIndependentStream) {
  Rng a(42);
  Rng child = a.Fork();
  // The forked stream must not replay the parent stream.
  Rng b(42);
  b.Next();  // advance past the Fork() draw
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (child.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, BernoulliExtremes) {
  Rng r(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.Bernoulli(0.0));
    EXPECT_TRUE(r.Bernoulli(1.0));
  }
}

}  // namespace
}  // namespace ods
