/**
 * @file
 * Randomized round-trip fuzz over every registered codec: 10k random +
 * patterned entries per codec must encode/decode bit-exactly through
 * the allocation-free path (compressInto/decompressFrom), and the
 * legacy allocating wrappers must agree with it bit for bit. A golden
 * digest per built-in codec pins the encodings themselves, so a change
 * that alters any encoded bit fails here even if it still round-trips.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "api/codec_registry.h"
#include "common/rng.h"
#include "workloads/patterns.h"

namespace buddy {
namespace {

constexpr int kFuzzEntries = 10000;

/** Deterministic mix of every pattern class plus full-entropy data. */
void
fuzzEntry(Rng &rng, int i, u8 *buf)
{
    switch (i % 10) {
      case 0:
        std::memset(buf, 0, kEntryBytes);
        break;
      case 1: case 2: case 3: case 4: case 5:
        // All six need buckets (zero handled above; 1..5 here).
        fillBucketEntry(rng, static_cast<unsigned>(i % 10), buf);
        break;
      case 6:
        fillFp32Field(rng, -10, buf);
        break;
      case 7:
        fillStructStripe(rng, 4, buf);
        break;
      case 8: {
        // Repeated 8-byte value (exercises BDI's Repeat8 and FPC runs).
        u8 v[8];
        for (auto &b : v)
            b = static_cast<u8>(rng.below(256));
        for (std::size_t off = 0; off < kEntryBytes; off += 8)
            std::memcpy(buf + off, v, 8);
        break;
      }
      default:
        for (std::size_t k = 0; k < kEntryBytes; ++k)
            buf[k] = static_cast<u8>(rng.below(256));
        break;
    }
}

class CodecFuzzTest : public ::testing::TestWithParam<std::string>
{};

TEST_P(CodecFuzzTest, ScratchPathRoundTripsBitExactly)
{
    const auto codec = api::CodecRegistry::instance().create(GetParam());
    Rng rng(2026);
    u8 buf[kEntryBytes], out[kEntryBytes];
    CompressionScratch scratch;

    for (int i = 0; i < kFuzzEntries; ++i) {
        fuzzEntry(rng, i, buf);
        const std::size_t bits =
            codec->compressInto(buf, scratch.encode, scratch);
        ASSERT_GT(bits, 0u);
        ASSERT_LE((bits + 7) / 8, kMaxEncodedBytes);
        std::memset(out, 0xAA, sizeof(out));
        codec->decompressFrom(scratch.encode, bits, out);
        ASSERT_EQ(std::memcmp(buf, out, kEntryBytes), 0)
            << GetParam() << " entry " << i;
    }
}

TEST_P(CodecFuzzTest, AllocatingWrapperAgreesWithScratchPath)
{
    const auto codec = api::CodecRegistry::instance().create(GetParam());
    Rng rng(77);
    u8 buf[kEntryBytes], out[kEntryBytes];
    CompressionScratch scratch;

    for (int i = 0; i < 1000; ++i) {
        fuzzEntry(rng, i, buf);
        const CompressionResult r = codec->compress(buf);
        const std::size_t bits =
            codec->compressInto(buf, scratch.encode, scratch);
        ASSERT_EQ(r.sizeBits, bits) << GetParam() << " entry " << i;
        ASSERT_EQ(std::memcmp(r.payload.data(), scratch.encode,
                              r.sizeBytes()),
                  0)
            << GetParam() << " entry " << i;
        codec->decompress(r, out);
        ASSERT_EQ(std::memcmp(buf, out, kEntryBytes), 0)
            << GetParam() << " entry " << i;
    }
}

TEST_P(CodecFuzzTest, ScratchReuseNeedsNoClearing)
{
    // Encoding a large entry then a tiny one into the same scratch must
    // not leak stale bytes into the tiny payload.
    const auto codec = api::CodecRegistry::instance().create(GetParam());
    Rng rng(5);
    u8 big[kEntryBytes], out[kEntryBytes];
    u8 zeros[kEntryBytes] = {};
    for (auto &b : big)
        b = static_cast<u8>(rng.below(256));
    CompressionScratch scratch;

    codec->compressInto(big, scratch.encode, scratch);
    const std::size_t bits =
        codec->compressInto(zeros, scratch.encode, scratch);
    codec->decompressFrom(scratch.encode, bits, out);
    EXPECT_EQ(std::memcmp(zeros, out, kEntryBytes), 0);
}

/** FNV-1a (64-bit) accumulator. */
struct Fnv1a
{
    u64 h = 0xcbf29ce484222325ull;

    void
    bytes(const u8 *p, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    }
};

/**
 * Encoding digests of the fuzz corpus (seed 2026, kFuzzEntries entries)
 * per built-in codec: FNV-1a over each entry's sizeBits (8 bytes, little
 * endian) followed by all sizeBytes() payload bytes, padding bits of the
 * last byte included. Any change to an encoding changes its digest.
 */
const std::map<std::string, u64> kGoldenDigests = {
    {"bpc", 0xc3ea0e75d23b0db5ull},
    {"bdi", 0x10d3e0b3f2e2f7b5ull},
    {"fpc", 0x71dea77d897fa481ull},
    {"zero", 0x8d0163dad6d16185ull},
};

TEST_P(CodecFuzzTest, EncodingsMatchGoldenDigest)
{
    const auto golden = kGoldenDigests.find(GetParam());
    if (golden == kGoldenDigests.end())
        GTEST_SKIP() << "no golden digest for externally registered codec";
    const auto codec = api::CodecRegistry::instance().create(GetParam());
    Rng rng(2026);
    u8 buf[kEntryBytes];
    CompressionScratch scratch;
    Fnv1a digest;

    for (int i = 0; i < kFuzzEntries; ++i) {
        fuzzEntry(rng, i, buf);
        const u64 bits = codec->compressInto(buf, scratch.encode, scratch);
        u8 le[8];
        for (unsigned k = 0; k < 8; ++k)
            le[k] = static_cast<u8>(bits >> (8 * k));
        digest.bytes(le, sizeof(le));
        digest.bytes(scratch.encode, (bits + 7) / 8);
    }
    EXPECT_EQ(digest.h, golden->second)
        << GetParam() << " digest 0x" << std::hex << digest.h;
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredCodecs, CodecFuzzTest,
    ::testing::ValuesIn(api::CodecRegistry::instance().names()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace buddy
