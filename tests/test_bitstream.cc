/**
 * @file
 * Unit tests for the LSB-first bit packer/unpacker that underlies every
 * compression codec.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "common/bitstream.h"
#include "common/rng.h"

namespace buddy {
namespace {

TEST(BitStream, EmptyWriterHasNoBits)
{
    BitWriter bw;
    EXPECT_EQ(bw.sizeBits(), 0u);
    EXPECT_EQ(bw.sizeBytes(), 0u);
}

TEST(BitStream, SingleBitRoundTrip)
{
    BitWriter bw;
    bw.putBit(true);
    bw.putBit(false);
    bw.putBit(true);
    ASSERT_EQ(bw.sizeBits(), 3u);

    BitReader br(bw);
    EXPECT_TRUE(br.getBit());
    EXPECT_FALSE(br.getBit());
    EXPECT_TRUE(br.getBit());
    EXPECT_EQ(br.remaining(), 0u);
}

TEST(BitStream, MultiBitValuesRoundTrip)
{
    BitWriter bw;
    bw.put(0xDEADBEEFull, 32);
    bw.put(0x5, 3);
    bw.put(0xFFFFFFFFFFFFFFFFull, 64);
    bw.put(0, 0); // zero-width write is a no-op

    BitReader br(bw);
    EXPECT_EQ(br.get(32), 0xDEADBEEFull);
    EXPECT_EQ(br.get(3), 0x5ull);
    EXPECT_EQ(br.get(64), 0xFFFFFFFFFFFFFFFFull);
    EXPECT_EQ(br.remaining(), 0u);
}

TEST(BitStream, SizeBytesRoundsUp)
{
    BitWriter bw;
    bw.put(0x7F, 7);
    EXPECT_EQ(bw.sizeBytes(), 1u);
    bw.putBit(1);
    EXPECT_EQ(bw.sizeBytes(), 1u);
    bw.putBit(0);
    EXPECT_EQ(bw.sizeBytes(), 2u);
}

TEST(BitStream, UnalignedInterleavedFields)
{
    BitWriter bw;
    for (unsigned n = 1; n <= 17; ++n)
        bw.put(n, n); // value n in an n-bit field

    BitReader br(bw);
    for (unsigned n = 1; n <= 17; ++n)
        EXPECT_EQ(br.get(n), n) << "field width " << n;
}

TEST(BitStream, RandomizedRoundTrip)
{
    Rng rng(42);
    for (int iter = 0; iter < 200; ++iter) {
        std::vector<std::pair<u64, unsigned>> fields;
        BitWriter bw;
        const int nfields = 1 + static_cast<int>(rng.below(40));
        for (int i = 0; i < nfields; ++i) {
            const unsigned width = 1 + static_cast<unsigned>(rng.below(64));
            const u64 mask =
                width == 64 ? ~0ull : ((1ull << width) - 1);
            const u64 v = rng.next() & mask;
            fields.emplace_back(v, width);
            bw.put(v, width);
        }
        BitReader br(bw);
        for (const auto &[v, width] : fields)
            ASSERT_EQ(br.get(width), v);
        ASSERT_EQ(br.remaining(), 0u);
    }
}

/** Random (value, width) fields; values carry junk above their width. */
std::vector<std::pair<u64, unsigned>>
randomFields(Rng &rng, int n)
{
    std::vector<std::pair<u64, unsigned>> fields;
    for (int i = 0; i < n; ++i)
        fields.emplace_back(rng.next(),
                            static_cast<unsigned>(rng.below(65)));
    return fields;
}

TEST(BitStream, FixedWriterMatchesBitWriterInDirtyExactBuffer)
{
    // The word-at-a-time writer must produce the same bytes as the
    // bit-at-a-time BitWriter, padding bits included, even into a buffer
    // full of ones that ends exactly at the last payload byte.
    Rng rng(7);
    for (int iter = 0; iter < 300; ++iter) {
        const auto fields =
            randomFields(rng, 1 + static_cast<int>(rng.below(30)));
        BitWriter ref;
        for (const auto &[v, w] : fields)
            ref.put(v, w); // BitWriter reads only the low w bits
        const std::size_t n = ref.sizeBytes();
        std::vector<u8> buf(n, 0xFF);
        FixedBitWriter fw(buf.data(), n);
        for (const auto &[v, w] : fields)
            fw.put(v, w);
        ASSERT_EQ(fw.sizeBits(), ref.sizeBits());
        ASSERT_EQ(buf, ref.bytes()) << "iteration " << iter;
    }
}

TEST(BitStream, ReaderGetsFieldsFromExactSizeHeapBuffer)
{
    // Under ASan a load past ceil(size_bits / 8) would be reported.
    Rng rng(8);
    for (int iter = 0; iter < 300; ++iter) {
        const auto fields =
            randomFields(rng, 1 + static_cast<int>(rng.below(30)));
        BitWriter bw;
        for (const auto &[v, w] : fields)
            bw.put(v & lowBits(w), w);
        const std::size_t n = bw.sizeBytes();
        const std::unique_ptr<u8[]> buf(new u8[n == 0 ? 1 : n]);
        std::memcpy(buf.get(), bw.bytes().data(), n);
        BitReader br(buf.get(), bw.sizeBits());
        for (const auto &[v, w] : fields)
            ASSERT_EQ(br.get(w), v & lowBits(w)) << "width " << w;
        ASSERT_EQ(br.remaining(), 0u);
    }
}

TEST(BitStream, PeekDoesNotConsumeAndReadsZeroPastEnd)
{
    u8 buf[2] = {0xB5, 0xFF}; // 10 payload bits; six padding ones
    BitReader br(buf, 10);
    EXPECT_EQ(br.peek(4), 0x5u);
    EXPECT_EQ(br.pos(), 0u);
    br.skip(4);
    // Bits 4..9 are 1,1,0,1 then 1,1; everything past bit 9 reads 0.
    EXPECT_EQ(br.peek(32), 0b111011u);
    EXPECT_EQ(br.peek(BitReader::kMaxPeekBits), 0b111011u);
    br.skip(6);
    EXPECT_EQ(br.remaining(), 0u);
    EXPECT_EQ(br.peek(8), 0u);
}

TEST(BitStreamDeath, OverrunPanics)
{
    BitWriter bw;
    bw.putBit(1);
    BitReader br(bw);
    br.getBit();
    EXPECT_DEATH(br.getBit(), "overrun");
}

TEST(BitStreamDeath, SkipAndWideGetOverrunPanic)
{
    u8 buf[1] = {0xFF};
    BitReader br(buf, 7);
    EXPECT_DEATH(br.skip(8), "BitReader overrun");
    EXPECT_DEATH(br.get(8), "BitReader overrun");
    EXPECT_DEATH(br.get(64), "BitReader overrun");
}

TEST(BitStreamDeath, FixedWriterOverflowPanics)
{
    u8 buf[2];
    FixedBitWriter fw(buf, sizeof(buf));
    fw.put(0x3FFF, 14);
    EXPECT_DEATH(fw.put(0, 3), "FixedBitWriter overflow");
    fw.put(0x3, 2); // exactly full is fine
    EXPECT_EQ(fw.sizeBits(), 16u);
    EXPECT_DEATH(fw.putBit(1), "FixedBitWriter overflow");
}

} // namespace
} // namespace buddy
