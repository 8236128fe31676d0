/**
 * @file
 * Unit and property tests for the memory-entry codecs (BPC, BDI, FPC,
 * zero). Every codec must round-trip bit-exactly on any input; the
 * pattern-specific tests additionally pin down expected compressed sizes
 * on data classes the paper's workloads are built from.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/bitstream.h"
#include "common/rng.h"
#include "compress/bdi.h"
#include "compress/bpc.h"
#include "compress/factory.h"
#include "compress/fpc.h"
#include "compress/zero.h"

namespace buddy {
namespace {

/** Helpers to build 128 B test entries. */
struct EntryBuf
{
    u8 data[kEntryBytes] = {};

    static EntryBuf
    zeros()
    {
        return EntryBuf{};
    }

    static EntryBuf
    fromWords(const std::vector<u32> &w)
    {
        EntryBuf e;
        for (std::size_t i = 0; i < kWordsPerEntry; ++i) {
            const u32 v = w[i % w.size()];
            std::memcpy(e.data + i * 4, &v, 4);
        }
        return e;
    }

    /** Arithmetic sequence of 32-bit words: base, base+step, ... */
    static EntryBuf
    ramp(u32 base, u32 step)
    {
        EntryBuf e;
        for (std::size_t i = 0; i < kWordsPerEntry; ++i) {
            const u32 v = base + static_cast<u32>(i) * step;
            std::memcpy(e.data + i * 4, &v, 4);
        }
        return e;
    }

    /**
     * Words w[0] = base, w[i+1] = w[i] + d[i], where d[i] is the value
     * paired with index i in @p deltas and 0 for every other index.
     */
    static EntryBuf
    fromDeltas(u32 base, const std::vector<std::pair<unsigned, u32>> &deltas)
    {
        u32 d[kWordsPerEntry - 1] = {};
        for (const auto &[i, v] : deltas)
            d[i] = v;
        EntryBuf e;
        u32 w = base;
        for (std::size_t i = 0; i < kWordsPerEntry; ++i) {
            std::memcpy(e.data + i * 4, &w, 4);
            if (i + 1 < kWordsPerEntry)
                w += d[i];
        }
        return e;
    }

    static EntryBuf
    random(Rng &rng)
    {
        EntryBuf e;
        for (auto &b : e.data)
            b = static_cast<u8>(rng.below(256));
        return e;
    }
};

void
expectRoundTrip(const Compressor &c, const EntryBuf &e)
{
    const CompressionResult r = c.compress(e.data);
    u8 out[kEntryBytes];
    std::memset(out, 0xAA, sizeof(out));
    c.decompress(r, out);
    ASSERT_EQ(std::memcmp(e.data, out, kEntryBytes), 0)
        << "codec " << c.name() << " round trip failed";
}

// ---------------------------------------------------------------------
// Parameterized round-trip properties across all codecs.
// ---------------------------------------------------------------------

class CodecTest : public ::testing::TestWithParam<const char *>
{
  protected:
    void SetUp() override { codec_ = makeCompressor(GetParam()); }
    std::unique_ptr<Compressor> codec_;
};

TEST_P(CodecTest, FactoryProducesCodec)
{
    ASSERT_NE(codec_, nullptr);
    EXPECT_STREQ(codec_->name(), GetParam());
}

TEST_P(CodecTest, ZeroEntryRoundTrips)
{
    expectRoundTrip(*codec_, EntryBuf::zeros());
}

TEST_P(CodecTest, ZeroEntryCompressesBelowOneSector)
{
    const auto r = codec_->compress(EntryBuf::zeros().data);
    EXPECT_LE(r.sizeBytes(), kSectorBytes);
}

TEST_P(CodecTest, RampRoundTrips)
{
    expectRoundTrip(*codec_, EntryBuf::ramp(1000, 3));
    expectRoundTrip(*codec_, EntryBuf::ramp(0xFFFFFFF0u, 7));
    expectRoundTrip(*codec_, EntryBuf::ramp(0x80000000u, 0x10000));
}

TEST_P(CodecTest, RandomEntriesRoundTrip)
{
    Rng rng(7);
    for (int i = 0; i < 300; ++i)
        expectRoundTrip(*codec_, EntryBuf::random(rng));
}

TEST_P(CodecTest, RandomEntryNeverExpandsPastTaggedRaw)
{
    Rng rng(11);
    for (int i = 0; i < 100; ++i) {
        const auto e = EntryBuf::random(rng);
        const auto r = codec_->compress(e.data);
        // Worst case: raw payload plus a small format tag.
        EXPECT_LE(r.sizeBits, kEntryBytes * 8 + 8);
    }
}

TEST_P(CodecTest, SparseEntriesRoundTrip)
{
    Rng rng(13);
    for (int i = 0; i < 100; ++i) {
        EntryBuf e = EntryBuf::zeros();
        const int nbytes = 1 + static_cast<int>(rng.below(8));
        for (int k = 0; k < nbytes; ++k)
            e.data[rng.below(kEntryBytes)] = static_cast<u8>(rng.below(256));
        expectRoundTrip(*codec_, e);
    }
}

TEST_P(CodecTest, FloatLatticeRoundTrips)
{
    // FP32 fields with smooth spatial variation, the dominant HPC pattern.
    Rng rng(17);
    for (int i = 0; i < 50; ++i) {
        EntryBuf e;
        float base = static_cast<float>(rng.uniform(-100.0, 100.0));
        for (std::size_t w = 0; w < kWordsPerEntry; ++w) {
            const float v =
                base + static_cast<float>(w) *
                           static_cast<float>(rng.uniform(0.0, 0.01));
            std::memcpy(e.data + w * 4, &v, 4);
        }
        expectRoundTrip(*codec_, e);
    }
}

TEST_P(CodecTest, AllOnesRoundTrips)
{
    EntryBuf e;
    std::memset(e.data, 0xFF, kEntryBytes);
    expectRoundTrip(*codec_, e);
}

TEST_P(CodecTest, AlternatingPatternRoundTrips)
{
    expectRoundTrip(*codec_,
                    EntryBuf::fromWords({0xAAAAAAAAu, 0x55555555u}));
    expectRoundTrip(*codec_, EntryBuf::fromWords({0x0u, 0xFFFFFFFFu}));
    expectRoundTrip(*codec_, EntryBuf::fromWords({0x1u, 0xFFFFFFFEu}));
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecTest,
                         ::testing::Values("bpc", "bdi", "fpc", "zero"));

// ---------------------------------------------------------------------
// BPC-specific behaviour.
// ---------------------------------------------------------------------

TEST(Bpc, ZeroEntryIsTiny)
{
    BpcCompressor bpc;
    const auto r = bpc.compress(EntryBuf::zeros().data);
    // Tag (1) + zero base (2) + one 33-plane zero run (8).
    EXPECT_LE(r.sizeBits, 16u);
}

TEST(Bpc, ConstantWordsCompressNearZeroEntry)
{
    BpcCompressor bpc;
    const auto e = EntryBuf::fromWords({0x12345678u});
    const auto r = bpc.compress(e.data);
    // All deltas zero; only the base costs real bits.
    EXPECT_LE(r.sizeBits, 64u);
}

TEST(Bpc, LinearRampCompressesExtremelyWell)
{
    BpcCompressor bpc;
    // Constant delta: one nonzero DBX event independent of ramp length.
    const auto r = bpc.compress(EntryBuf::ramp(100, 4).data);
    EXPECT_LE(r.sizeBytes(), 16u);
}

TEST(Bpc, SmallMixedDeltasStayUnderHalfEntry)
{
    BpcCompressor bpc;
    Rng rng(23);
    for (int i = 0; i < 50; ++i) {
        EntryBuf e;
        u32 v = 1000000;
        for (std::size_t w = 0; w < kWordsPerEntry; ++w) {
            v += static_cast<u32>(rng.below(256)) - 128;
            std::memcpy(e.data + w * 4, &v, 4);
        }
        const auto r = bpc.compress(e.data);
        EXPECT_LE(r.sizeBytes(), kEntryBytes / 2)
            << "small-delta entry should compress to >=2x";
        expectRoundTrip(bpc, e);
    }
}

TEST(Bpc, RandomDataFallsBackToTaggedRaw)
{
    BpcCompressor bpc;
    Rng rng(29);
    int raw_count = 0;
    for (int i = 0; i < 50; ++i) {
        const auto e = EntryBuf::random(rng);
        const auto r = bpc.compress(e.data);
        if (r.sizeBits == kEntryBytes * 8 + 1)
            ++raw_count;
        EXPECT_LE(r.sizeBits, kEntryBytes * 8 + 1);
    }
    // Virtually all random entries should hit the raw fallback.
    EXPECT_GE(raw_count, 45);
}

TEST(Bpc, SignBitPlanesCollapseForNegativeDeltas)
{
    BpcCompressor bpc;
    // Descending ramp: constant negative delta exercises the sign planes.
    EntryBuf e;
    for (std::size_t w = 0; w < kWordsPerEntry; ++w) {
        const u32 v = 1000000 - static_cast<u32>(w) * 17;
        std::memcpy(e.data + w * 4, &v, 4);
    }
    const auto r = bpc.compress(e.data);
    EXPECT_LE(r.sizeBytes(), 24u);
    expectRoundTrip(bpc, e);
}

// ---------------------------------------------------------------------
// BPC symbol boundaries. Each expected size is summed from the code
// table in bpc.cc: tag 1; base "00" 2, "01"+4 6, "10"+16 18, "11"+32
// 34; zero plane "01" 2; zero run "001"+5 8 (2..33 planes); all-ones
// "00000" 5; DBP-zero "00001" 5; two ones "00010"+5 10; single one
// "00011"+5 10; raw plane "1"+31 32. Planes go from 32 down to 0, and
// a delta d with bits only in 0..k leaves DBX planes k+1..32 zero.
// ---------------------------------------------------------------------

std::size_t
bpcBits(const EntryBuf &e)
{
    BpcCompressor bpc;
    expectRoundTrip(bpc, e);
    return bpc.compressedBits(e.data);
}

TEST(BpcSymbols, TwoOnesAtTopPosition)
{
    // d[29] = d[30] = 1: DBX plane 0 = 0b11 << 29, planes 32..1 zero.
    const auto e = EntryBuf::fromDeltas(0, {{29, 1}, {30, 1}});
    EXPECT_EQ(bpcBits(e), 1u + 2 + 8 + 10);
}

TEST(BpcSymbols, SingleOneAtTopPosition)
{
    // d[30] = 1: DBX plane 0 = 1 << 30, planes 32..1 zero.
    const auto e = EntryBuf::fromDeltas(0, {{30, 1}});
    EXPECT_EQ(bpcBits(e), 1u + 2 + 8 + 10);
}

TEST(BpcSymbols, AllOnesPlane)
{
    // Every delta is 1 (ramp 0, 1, 2, ...): DBX plane 0 is all ones.
    EXPECT_EQ(bpcBits(EntryBuf::ramp(0, 1)), 1u + 2 + 8 + 5);
}

TEST(BpcSymbols, DbpZeroShortcut)
{
    // d[0] = 2: DBX plane 1 = DBP plane 1 = single one at 0; DBX plane
    // 0 = DBP1 ^ DBP0 is nonzero while DBP plane 0 is zero.
    const auto e = EntryBuf::fromDeltas(0, {{0, 2}});
    EXPECT_EQ(bpcBits(e), 1u + 2 + 8 + 10 + 5);
}

TEST(BpcSymbols, ZeroRunLengths)
{
    // 33 planes: the all-zero entry is one maximal run.
    EXPECT_EQ(bpcBits(EntryBuf::zeros()), 1u + 2 + 8);
    // 32 planes (32..1) above a raw plane 0: d = 1 at the even indices.
    std::vector<std::pair<unsigned, u32>> even;
    for (unsigned i = 0; i < BpcCompressor::kPlaneBits; i += 2)
        even.emplace_back(i, 1);
    EXPECT_EQ(bpcBits(EntryBuf::fromDeltas(0, even)), 1u + 2 + 8 + 32);
    // d[0] = 3: planes 32..2 run of 31, plane 1 single one, plane 0
    // (1 ^ 1) a lone zero plane at the end.
    EXPECT_EQ(bpcBits(EntryBuf::fromDeltas(0, {{0, 3}})),
              1u + 2 + 8 + 10 + 2);
    // d[0] = 7: planes 32..3 run of 30, plane 2 single one, planes 1
    // and 0 a run of two.
    EXPECT_EQ(bpcBits(EntryBuf::fromDeltas(0, {{0, 7}})),
              1u + 2 + 8 + 10 + 8);
    // A lone zero plane between coded planes: d[0] = 0b1001 gives DBX
    // planes 3, 2 and 0 a one at bit 0 and plane 1 none. Planes 32..4
    // are a run of 29, plane 3 a single one, plane 2 DBP-zero (bit 2 of
    // d is clear), plane 1 a lone zero plane, plane 0 a single one.
    EXPECT_EQ(bpcBits(EntryBuf::fromDeltas(0, {{0, 9}})),
              1u + 2 + 8 + 10 + 5 + 2 + 10);
}

TEST(BpcSymbols, BaseCodeBoundaries)
{
    // Constant entries: every plane is zero, so only the base varies.
    const auto bits = [](i32 base) {
        return bpcBits(EntryBuf::fromWords({static_cast<u32>(base)}));
    };
    EXPECT_EQ(bits(0), 1u + 2 + 8);
    EXPECT_EQ(bits(-8), 1u + 6 + 8);
    EXPECT_EQ(bits(7), 1u + 6 + 8);
    EXPECT_EQ(bits(-9), 1u + 18 + 8);
    EXPECT_EQ(bits(8), 1u + 18 + 8);
    EXPECT_EQ(bits(-32768), 1u + 18 + 8);
    EXPECT_EQ(bits(32767), 1u + 18 + 8);
    EXPECT_EQ(bits(-32769), 1u + 34 + 8);
    EXPECT_EQ(bits(32768), 1u + 34 + 8);
}

TEST(BpcSymbols, RawFallbackIsTagPlusEntryVerbatim)
{
    // Full-entropy bytes: their deltas make most DBX planes raw, so the
    // transformed stream would exceed 1024 bits.
    Rng rng(29);
    const auto e = EntryBuf::random(rng);
    BpcCompressor bpc;
    const auto r = bpc.compress(e.data);
    ASSERT_EQ(r.sizeBits, 1u + kEntryBytes * 8);
    BitReader br(r.payload.data(), r.sizeBits);
    EXPECT_EQ(br.get(1), 1u);
    for (std::size_t i = 0; i < kEntryBytes; ++i)
        ASSERT_EQ(br.get(8), e.data[i]) << "byte " << i;
    expectRoundTrip(bpc, e);
}

// ---------------------------------------------------------------------
// Malformed payloads and exact-size buffers.
// ---------------------------------------------------------------------

/** Entries that reach structured and raw-fallback paths of every codec. */
std::vector<EntryBuf>
payloadEntries()
{
    std::vector<EntryBuf> v;
    v.push_back(EntryBuf::zeros());
    v.push_back(EntryBuf::ramp(1000, 3));
    v.push_back(EntryBuf::fromWords({1, 2, 3, 0x7E7E7E7Eu, 0xABCD0000u}));
    v.push_back(EntryBuf::fromWords({0xCAFEBABEu, 0xCAFEBABEu}));
    Rng rng(43);
    for (int i = 0; i < 40; ++i) {
        EntryBuf e;
        // Random walks with step ranges from 1 to 2^23.
        const u32 span = 1u << (i % 24);
        u32 w = static_cast<u32>(rng.next());
        for (std::size_t k = 0; k < kWordsPerEntry; ++k) {
            w += static_cast<u32>(rng.below(span)) - span / 2;
            std::memcpy(e.data + k * 4, &w, 4);
        }
        v.push_back(e);
    }
    for (int i = 0; i < 8; ++i)
        v.push_back(EntryBuf::random(rng));
    return v;
}

class CodecPayloadTest : public CodecTest
{};

TEST_P(CodecPayloadTest, DecodesFromExactSizeHeapBuffer)
{
    // The heap block ends at the last payload byte, so under ASan any
    // read past ceil(size_bits / 8) is reported. Padding bits of the
    // last byte are set to ones: they are not part of the payload and
    // must not change the decoded entry.
    for (const auto &e : payloadEntries()) {
        const CompressionResult r = codec_->compress(e.data);
        const std::size_t nbytes = r.sizeBytes();
        const std::unique_ptr<u8[]> buf(new u8[nbytes]);
        std::memcpy(buf.get(), r.payload.data(), nbytes);
        if (r.sizeBits % 8 != 0)
            buf[nbytes - 1] |= static_cast<u8>(0xFF << (r.sizeBits % 8));
        u8 out[kEntryBytes];
        codec_->decompressFrom(buf.get(), r.sizeBits, out);
        ASSERT_EQ(std::memcmp(e.data, out, kEntryBytes), 0)
            << GetParam() << " bits " << r.sizeBits;
    }
}

TEST_P(CodecPayloadTest, TruncatedPayloadDies)
{
    const auto entries = payloadEntries();
    // A structured entry and a full-entropy (raw) entry.
    for (const EntryBuf *e : {&entries[1], &entries.back()}) {
        const CompressionResult r = codec_->compress(e->data);
        u8 out[kEntryBytes];
        for (const std::size_t cut : {std::size_t{1}, r.sizeBits / 2,
                                      r.sizeBits - 1}) {
            EXPECT_DEATH(codec_->decompressFrom(r.payload.data(),
                                                r.sizeBits - cut, out),
                         "BitReader overrun")
                << GetParam() << " cut " << cut;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(StructuredCodecs, CodecPayloadTest,
                         ::testing::Values("bpc", "bdi", "fpc"));

TEST(BpcDeathTest, ZeroRunPastPlaneZeroDies)
{
    // tag 0, base "00", "01" (plane 32 zero), then "001" + 31: a run of
    // 33 more planes where only 32 remain, i.e. 34 zero planes in all.
    u8 buf[kMaxEncodedBytes];
    FixedBitWriter w(buf, sizeof(buf));
    w.put(0, 1);
    w.put(0b00, 2);
    w.put(0b10, 2);
    w.put(0b100 | (31u << 3), 8);
    BpcCompressor bpc;
    u8 out[kEntryBytes];
    EXPECT_DEATH(bpc.decompressFrom(buf, w.sizeBits(), out),
                 "BPC zero run overruns planes");
}

// ---------------------------------------------------------------------
// BDI-specific behaviour.
// ---------------------------------------------------------------------

TEST(Bdi, RepeatedQwordUsesRepeatMode)
{
    BdiCompressor bdi;
    const auto e = EntryBuf::fromWords({0xCAFEBABEu, 0xCAFEBABEu});
    const auto r = bdi.compress(e.data);
    EXPECT_LE(r.sizeBytes(), 10u); // 4-bit tag + 8 B value
    expectRoundTrip(bdi, e);
}

TEST(Bdi, SmallIntegersUseNarrowDeltas)
{
    BdiCompressor bdi;
    EntryBuf e;
    Rng rng(31);
    for (std::size_t w = 0; w < kWordsPerEntry; ++w) {
        const u32 v = static_cast<u32>(rng.below(100));
        std::memcpy(e.data + w * 4, &v, 4);
    }
    const auto r = bdi.compress(e.data);
    EXPECT_LT(r.sizeBytes(), kEntryBytes / 2);
    expectRoundTrip(bdi, e);
}

TEST(Bdi, PointerLikeDataCompresses)
{
    BdiCompressor bdi;
    // 8-byte pointers into the same region: base8-delta2 territory.
    EntryBuf e;
    Rng rng(37);
    for (std::size_t q = 0; q < kEntryBytes / 8; ++q) {
        const u64 v = 0x00007F8812340000ull + rng.below(0x8000);
        std::memcpy(e.data + q * 8, &v, 8);
    }
    const auto r = bdi.compress(e.data);
    EXPECT_LT(r.sizeBytes(), kEntryBytes / 2);
    expectRoundTrip(bdi, e);
}

// ---------------------------------------------------------------------
// FPC-specific behaviour.
// ---------------------------------------------------------------------

TEST(Fpc, ZeroRunsAreCheap)
{
    FpcCompressor fpc;
    const auto r = fpc.compress(EntryBuf::zeros().data);
    // 32 zero words = 4 runs of 8 words at 6 bits each.
    EXPECT_LE(r.sizeBits, 25u);
}

TEST(Fpc, SmallValuesGetNarrowCodes)
{
    FpcCompressor fpc;
    const auto e = EntryBuf::fromWords({1, 2, 3, 4, 5, 6, 7, 0});
    const auto r = fpc.compress(e.data);
    EXPECT_LT(r.sizeBytes(), kEntryBytes / 3);
    expectRoundTrip(fpc, e);
}

TEST(Fpc, RepeatedByteWordPattern)
{
    FpcCompressor fpc;
    const auto e = EntryBuf::fromWords({0x7E7E7E7Eu});
    const auto r = fpc.compress(e.data);
    EXPECT_LE(r.sizeBits, 32u * 11u + 1);
    expectRoundTrip(fpc, e);
}

TEST(Fpc, HalfwordPaddedPattern)
{
    FpcCompressor fpc;
    const auto e = EntryBuf::fromWords({0xABCD0000u});
    expectRoundTrip(fpc, e);
    const auto r = fpc.compress(e.data);
    EXPECT_LE(r.sizeBits, 32u * 19u + 1);
}

// ---------------------------------------------------------------------
// Cross-codec comparisons used to justify BPC selection (Section 2.4).
// ---------------------------------------------------------------------

TEST(CodecComparison, BpcBeatsBdiAndFpcOnSmoothFp32)
{
    BpcCompressor bpc;
    BdiCompressor bdi;
    FpcCompressor fpc;
    Rng rng(41);

    double bpc_bits = 0, bdi_bits = 0, fpc_bits = 0;
    for (int i = 0; i < 200; ++i) {
        EntryBuf e;
        float v = static_cast<float>(rng.uniform(1.0, 2.0));
        for (std::size_t w = 0; w < kWordsPerEntry; ++w) {
            v += static_cast<float>(rng.uniform(-1e-4, 1e-4));
            std::memcpy(e.data + w * 4, &v, 4);
        }
        bpc_bits += static_cast<double>(bpc.compressedBits(e.data));
        bdi_bits += static_cast<double>(bdi.compressedBits(e.data));
        fpc_bits += static_cast<double>(fpc.compressedBits(e.data));
    }
    // Homogeneous FP data is BPC's home turf (paper Section 3.1).
    EXPECT_LT(bpc_bits, bdi_bits);
    EXPECT_LT(bpc_bits, fpc_bits);
}

} // namespace
} // namespace buddy
