// Dedicated GAP/RLE codec suite: round trips across densities and
// boundary sizes, the streaming reader/writer, and — the part the codec's
// history makes load-bearing — strict rejection of malformed byte streams.
// The seed's codec trusted its input (unchecked varint reads, out-of-range
// Set calls); these tests pin the checked behavior that replaced it.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/bitvector.h"
#include "util/gap_codec.h"
#include "util/rng.h"

namespace sparqlsim::util {
namespace {

BitVector RandomVector(Rng* rng, size_t n, double density) {
  BitVector v(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng->NextBool(density)) v.Set(i);
  }
  return v;
}

// Sizes straddling the word (64) and hierarchical-block (4096) edges,
// where the word-wise run extraction and tail masking have their corner
// cases.
const size_t kBoundarySizes[] = {1,    2,    63,   64,   65,   127,  128,
                                 129,  511,  512,  513,  4095, 4096, 4097,
                                 8191, 8192, 8193};

TEST(GapCodecTest, RoundTripAtBoundarySizes) {
  Rng rng(7);
  for (size_t n : kBoundarySizes) {
    for (double density : {0.0, 0.004, 0.5, 1.0}) {
      BitVector v = density == 0.0   ? BitVector(n)
                    : density == 1.0 ? BitVector(n, true)
                                     : RandomVector(&rng, n, density);
      const std::vector<uint8_t> encoded = GapCodec::Encode(v);
      EXPECT_EQ(GapCodec::Decode(encoded, n), v)
          << "n=" << n << " density=" << density;
      EXPECT_EQ(GapCodec::EncodedSize(v), encoded.size())
          << "n=" << n << " density=" << density;
      auto checked = GapCodec::TryDecode(encoded, n);
      ASSERT_TRUE(checked.has_value()) << "n=" << n;
      EXPECT_EQ(*checked, v);
    }
  }
}

TEST(GapCodecTest, RoundTripEmptyVector) {
  BitVector v(0);
  const std::vector<uint8_t> encoded = GapCodec::Encode(v);
  EXPECT_TRUE(encoded.empty());
  EXPECT_EQ(GapCodec::Decode(encoded, 0), v);
}

TEST(GapCodecTest, AlternatingBitsAreTheWorstCase) {
  // 0101...: every bit is its own run — one byte per run, no gap economy.
  const size_t n = 300;
  BitVector v(n);
  for (size_t i = 1; i < n; i += 2) v.Set(i);
  const std::vector<uint8_t> encoded = GapCodec::Encode(v);
  EXPECT_EQ(encoded.size(), n);  // n runs, each length 1 -> one byte each
  EXPECT_EQ(GapCodec::Decode(encoded, n), v);

  // 1010...: same, but the leading zero-run has length 0 (one extra byte).
  BitVector w(n);
  for (size_t i = 0; i < n; i += 2) w.Set(i);
  const std::vector<uint8_t> encoded_w = GapCodec::Encode(w);
  EXPECT_EQ(encoded_w.size(), n + 1);
  EXPECT_EQ(GapCodec::Decode(encoded_w, n), w);
}

TEST(GapCodecTest, SingleBitInAMillionIsAFewBytes) {
  BitVector v(1'000'000);
  v.Set(999'999);
  const std::vector<uint8_t> encoded = GapCodec::Encode(v);
  EXPECT_LE(encoded.size(), 5u);
  EXPECT_EQ(GapCodec::Decode(encoded, 1'000'000), v);
}

TEST(GapCodecTest, EncodedSizeFromIndicesMatchesEncode) {
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 1 + rng.NextBounded(5000);
    BitVector v = RandomVector(&rng, n, rng.NextDouble());
    EXPECT_EQ(GapCodec::EncodedSizeFromIndices(v.ToIndexVector(), n),
              GapCodec::Encode(v).size())
        << "n=" << n;
  }
}

TEST(GapCodecTest, TryDecodeRejectsTruncatedVarint) {
  BitVector v(1000);
  v.Set(500);
  std::vector<uint8_t> encoded = GapCodec::Encode(v);
  ASSERT_GE(encoded.size(), 2u);
  encoded.back() |= 0x80;  // continuation bit with nothing following
  EXPECT_FALSE(GapCodec::TryDecode(encoded, 1000).has_value());
  encoded.pop_back();  // cut mid-stream
  EXPECT_FALSE(GapCodec::TryDecode(encoded, 1000).has_value());
}

TEST(GapCodecTest, TryDecodeRejectsOverwideVarint) {
  // Eleven continuation bytes: a varint wider than 64 bits.
  std::vector<uint8_t> buffer(11, 0xFF);
  buffer.push_back(0x00);
  EXPECT_FALSE(GapCodec::TryDecode(buffer, 100).has_value());
  // Ten bytes whose top byte carries bits past 2^64.
  std::vector<uint8_t> overflow(9, 0x80);
  overflow.push_back(0x7F);
  EXPECT_FALSE(GapCodec::TryDecode(overflow, 100).has_value());
}

TEST(GapCodecTest, TryDecodeRejectsRunOvershoot) {
  BitVector v(100, true);
  const std::vector<uint8_t> encoded = GapCodec::Encode(v);
  // Claiming a smaller universe than the runs cover must fail...
  EXPECT_FALSE(GapCodec::TryDecode(encoded, 99).has_value());
  // ...as must a larger one (undershoot: runs stop before num_bits).
  EXPECT_FALSE(GapCodec::TryDecode(encoded, 101).has_value());
  // The true size round-trips.
  EXPECT_TRUE(GapCodec::TryDecode(encoded, 100).has_value());
}

TEST(GapCodecTest, TryDecodeRejectsTrailingBytes) {
  BitVector v(64, true);
  std::vector<uint8_t> encoded = GapCodec::Encode(v);
  encoded.push_back(0x05);  // a well-formed varint after the final run
  EXPECT_FALSE(GapCodec::TryDecode(encoded, 64).has_value());
}

TEST(GapCodecTest, TryDecodeRejectsInteriorZeroRun) {
  // [1-run 3][zero-length run][1-run 2] — canonical streams merge
  // same-value runs, so an interior zero length is always corruption.
  const std::vector<uint8_t> buffer = {0x00, 0x03, 0x00, 0x02};
  EXPECT_FALSE(GapCodec::TryDecode(buffer, 5).has_value());
}

TEST(GapCodecTest, TryDecodeAcceptsEmptyBufferForEmptyVector) {
  EXPECT_TRUE(GapCodec::TryDecode({}, 0).has_value());
  EXPECT_FALSE(GapCodec::TryDecode({}, 1).has_value());
}

TEST(GapReaderTest, ReadsRunsAndFlagsTruncation) {
  const std::vector<uint8_t> buffer = {0x03, 0xAC, 0x02, 0x81};
  GapReader reader(buffer);
  uint64_t run = 0;
  ASSERT_TRUE(reader.ReadRun(&run));
  EXPECT_EQ(run, 3u);
  ASSERT_TRUE(reader.ReadRun(&run));
  EXPECT_EQ(run, 0x12Cu);  // 0xAC 0x02 -> 0x2C | (0x02 << 7)
  EXPECT_FALSE(reader.malformed());
  EXPECT_FALSE(reader.ReadRun(&run));  // 0x81 is a truncated varint
  EXPECT_TRUE(reader.malformed());
}

TEST(GapWriterTest, MergesAdjacentSameValueRuns) {
  GapWriter writer;
  writer.Append(false, 2);
  writer.Append(false, 3);
  writer.Append(true, 1);
  writer.Append(true, 4);
  EXPECT_EQ(writer.BitsWritten(), 10u);
  const std::vector<uint8_t> buffer = writer.Take();
  EXPECT_EQ(buffer, (std::vector<uint8_t>{0x05, 0x05}));
}

TEST(GapWriterTest, ReproducesEncodeByteForByte) {
  // Feeding a vector's runs through the writer must equal Encode exactly
  // — the property that keeps run-built streams canonical.
  Rng rng(13);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t n = 1 + rng.NextBounded(3000);
    BitVector v = RandomVector(&rng, n, rng.NextDouble());
    GapWriter writer;
    size_t pos = 0;
    v.ForEachSetBit([&](uint32_t i) {
      writer.Append(false, i - pos);
      writer.Append(true, 1);
      pos = i + 1;
    });
    writer.Append(false, n - pos);
    EXPECT_EQ(writer.Take(), GapCodec::Encode(v)) << "n=" << n;
  }
}

TEST(GapCodecTest, IndexEncodeMatchesBitVectorEncode) {
  // The index-based encoder (used by the SQSIMDB2 row writer, which never
  // materializes a BitVector per row) must produce the canonical bytes —
  // the same ones Encode produces for the equivalent vector.
  Rng rng(21);
  for (size_t n : kBoundarySizes) {
    for (double density : {0.0, 0.01, 0.5, 1.0}) {
      BitVector v = density == 0.0   ? BitVector(n)
                    : density == 1.0 ? BitVector(n, true)
                                     : RandomVector(&rng, n, density);
      std::vector<uint32_t> indices;
      v.ForEachSetBit([&](uint32_t i) { indices.push_back(i); });
      std::vector<uint8_t> encoded;
      GapCodec::EncodeFromIndices(indices, n, &encoded);
      EXPECT_EQ(encoded, GapCodec::Encode(v)) << "n=" << n;
      EXPECT_EQ(encoded.size(), GapCodec::EncodedSizeFromIndices(indices, n))
          << "n=" << n;

      std::vector<uint32_t> decoded;
      ASSERT_TRUE(GapCodec::TryDecodeIndices(encoded, n, &decoded))
          << "n=" << n;
      EXPECT_EQ(decoded, indices) << "n=" << n;
    }
  }
}

TEST(GapCodecTest, TryDecodeIndicesRejectsMalformedBuffers) {
  BitVector v(100);
  v.Set(3);
  v.Set(77);
  std::vector<uint8_t> good = GapCodec::Encode(v);
  std::vector<uint32_t> out;
  ASSERT_TRUE(GapCodec::TryDecodeIndices(good, 100, &out));

  // Truncation, trailing garbage, and a wrong universe size must all be
  // rejected exactly like TryDecode rejects them.
  std::vector<uint8_t> truncated(good.begin(), good.end() - 1);
  EXPECT_FALSE(GapCodec::TryDecodeIndices(truncated, 100, &out));
  std::vector<uint8_t> padded = good;
  padded.push_back(0x01);
  EXPECT_FALSE(GapCodec::TryDecodeIndices(padded, 100, &out));
  EXPECT_FALSE(GapCodec::TryDecodeIndices(good, 99, &out));
  EXPECT_FALSE(GapCodec::TryDecodeIndices(good, 101, &out));
}

}  // namespace
}  // namespace sparqlsim::util
