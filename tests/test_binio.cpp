#include "serial/binio.h"

#include <gtest/gtest.h>

#include "serial/record.h"

namespace xt {
namespace {

TEST(BinIo, ScalarRoundTrip) {
  BinWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i32(-42);
  w.i64(-1'000'000'000'000LL);
  w.f32(3.25f);
  w.f64(-2.5);
  w.boolean(true);
  w.boolean(false);

  BinReader r(w.buffer());
  EXPECT_EQ(r.u8().value(), 0xAB);
  EXPECT_EQ(r.u16().value(), 0xBEEF);
  EXPECT_EQ(r.u32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64().value(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i32().value(), -42);
  EXPECT_EQ(r.i64().value(), -1'000'000'000'000LL);
  EXPECT_FLOAT_EQ(r.f32().value(), 3.25f);
  EXPECT_DOUBLE_EQ(r.f64().value(), -2.5);
  EXPECT_TRUE(r.boolean().value());
  EXPECT_FALSE(r.boolean().value());
  EXPECT_TRUE(r.exhausted());
}

TEST(BinIo, StringRoundTrip) {
  BinWriter w;
  w.str("");
  w.str("hello");
  w.str(std::string(10'000, 'x'));
  BinReader r(w.buffer());
  EXPECT_EQ(r.str().value(), "");
  EXPECT_EQ(r.str().value(), "hello");
  EXPECT_EQ(r.str().value().size(), 10'000u);
}

TEST(BinIo, BytesRoundTrip) {
  BinWriter w;
  w.bytes({1, 2, 3, 255});
  BinReader r(w.buffer());
  EXPECT_EQ(r.bytes().value(), (Bytes{1, 2, 3, 255}));
}

TEST(BinIo, VectorRoundTrips) {
  BinWriter w;
  w.f32_vec({1.0f, -2.5f, 3.75f});
  BinReader r(w.buffer());
  EXPECT_EQ(r.f32_vec().value(), (std::vector<float>{1.0f, -2.5f, 3.75f}));
}

TEST(BinIo, ReaderRejectsTruncatedScalar) {
  BinWriter w;
  w.u64(7);
  Bytes truncated(w.buffer().begin(), w.buffer().begin() + 3);
  BinReader r(truncated);
  EXPECT_FALSE(r.u64().has_value());
}

TEST(BinIo, ReaderRejectsTruncatedString) {
  BinWriter w;
  w.str("hello world");
  Bytes truncated(w.buffer().begin(), w.buffer().begin() + 6);
  BinReader r(truncated);
  EXPECT_FALSE(r.str().has_value());
}

TEST(BinIo, ReaderRejectsTruncatedVector) {
  BinWriter w;
  w.f32_vec(std::vector<float>(100, 1.0f));
  Bytes truncated(w.buffer().begin(), w.buffer().begin() + 50);
  BinReader r(truncated);
  EXPECT_FALSE(r.f32_vec().has_value());
}

TEST(BinIo, ReaderRejectsHugeClaimedLength) {
  BinWriter w;
  w.u64(UINT64_MAX);  // a vector header claiming 2^64 elements
  BinReader r(w.buffer());
  EXPECT_FALSE(r.f32_vec().has_value());
}

TEST(BinIo, RemainingTracksPosition) {
  BinWriter w;
  w.u32(1);
  w.u32(2);
  BinReader r(w.buffer());
  EXPECT_EQ(r.remaining(), 8u);
  (void)r.u32();
  EXPECT_EQ(r.remaining(), 4u);
}

TEST(BinIo, ExactAllocatesOnceAtTheWrittenSize) {
  const std::vector<float> floats(1'000, 0.5f);
  const auto fields = [&](BinWriter& w) {
    w.u8(1);
    w.str("stats");
    w.f32_vec(floats);
    w.bytes(Bytes(3'000, 7));
    w.f64(2.0);
  };
  BinWriter grown;
  fields(grown);
  const Bytes exact = BinWriter::exact(fields);
  EXPECT_EQ(exact, grown.buffer());
  EXPECT_EQ(exact.capacity(), exact.size());
  EXPECT_TRUE(BinWriter::exact([](BinWriter&) {}).empty());
}

TEST(StatsRecord, SerializeAllocatesExactlyTheRecord) {
  StatsRecord record;
  record.source = "explorer-m1-0";
  record.values["episode_return"] = 21.5;
  record.values["episode_steps"] = 77;
  record.values["env_steps"] = 1e6;
  for (const StatsRecord& r : {record, StatsRecord{}}) {
    const Bytes body = r.serialize();
    EXPECT_EQ(body.capacity(), body.size());
    EXPECT_TRUE(StatsRecord::deserialize(body) == r);
  }
}

TEST(StatsRecord, RoundTrip) {
  StatsRecord record;
  record.source = "explorer-m0-3";
  record.values["episode_return"] = 21.5;
  record.values["steps"] = 1e6;
  const auto restored = StatsRecord::deserialize(record.serialize());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, record);
}

TEST(StatsRecord, EmptyValues) {
  StatsRecord record;
  record.source = "learner";
  const auto restored = StatsRecord::deserialize(record.serialize());
  ASSERT_TRUE(restored.has_value());
  EXPECT_TRUE(restored->values.empty());
}

TEST(StatsRecord, RejectsGarbage) {
  EXPECT_FALSE(StatsRecord::deserialize({0xFF, 0xFF, 0xFF}).has_value());
}

}  // namespace
}  // namespace xt
