#include "compress/bpc.h"

#include "common/bitstream.h"
#include "common/check.h"

namespace buddy {

namespace {

constexpr u32 kPlaneMask = (1u << BpcCompressor::kPlaneBits) - 1;
constexpr int kTopPlane = BpcCompressor::kPlanes - 1;
constexpr std::size_t kRawBits = kEntryBytes * 8;

/**
 * Prefix-free DBX plane symbol codes. The set below mirrors the structure
 * of the published BPC code table (zero runs, all-ones, DBP-zero shortcut,
 * two consecutive ones, single one, raw plane):
 *
 *   "01"                     single all-zero DBX plane            (2 bits)
 *   "001" + 5-bit (run-2)    run of 2..33 all-zero DBX planes     (8 bits)
 *   "00000"                  all-ones DBX plane                   (5 bits)
 *   "00001"                  DBX != 0 but DBP == 0                (5 bits)
 *   "00010" + 5-bit pos      two consecutive ones at pos, pos+1  (10 bits)
 *   "00011" + 5-bit pos      single one at pos                   (10 bits)
 *   "1"     + 31 raw bits    uncompressed plane                  (32 bits)
 *
 * Codes are strings of bits in stream order. The stream is LSB-first, so
 * each symbol is one FixedBitWriter::put() of the value below: the first
 * code bit is bit 0, and a payload follows the prefix bits.
 */
constexpr u64 kSymZeroSingle = 0b10;  // "01"
constexpr u64 kSymZeroRun = 0b100;    // "001"
constexpr u64 kSymAllOnes = 0b00000;  // "00000"
constexpr u64 kSymDbpZero = 0b10000;  // "00001"
constexpr u64 kSymTwoOnes = 0b01000;  // "00010"
constexpr u64 kSymOneOne = 0b11000;   // "00011"
constexpr u64 kSymRaw = 0b1;          // "1"

void
emitZeroPlanes(FixedBitWriter &bw, unsigned run)
{
    while (run > 0) {
        if (run == 1) {
            bw.put(kSymZeroSingle, 2);
            run = 0;
        } else {
            const unsigned chunk = run > 33 ? 33 : run;
            bw.put(kSymZeroRun | (u64{chunk - 2} << 3), 8);
            run -= chunk;
        }
    }
}

/**
 * Base-word code, written after the format tag bit:
 *   "00"            zero base                         (2 bits)
 *   "01" + 4 bits   4-bit sign-extended base          (6 bits)
 *   "10" + 16 bits  16-bit sign-extended base        (18 bits)
 *   "11" + 32 bits  raw base                         (34 bits)
 */
void
encodeBase(FixedBitWriter &bw, u32 base)
{
    const i32 sbase = static_cast<i32>(base);
    if (base == 0) {
        bw.put(0b00, 2);
    } else if (sbase >= -8 && sbase < 8) {
        bw.put(0b10 | (u64{base & 0xFu} << 2), 6);
    } else if (sbase >= -32768 && sbase < 32768) {
        bw.put(0b01 | (u64{base & 0xFFFFu} << 2), 18);
    } else {
        bw.put(0b11 | (u64{base} << 2), 34);
    }
}

u32
decodeBase(BitReader &br)
{
    switch (br.get(2)) {
      case 0b00:
        return 0;
      case 0b10: { // "01": 4-bit sign-extended
        const u32 v = static_cast<u32>(br.get(4));
        return static_cast<u32>(static_cast<i32>(v << 28) >> 28);
      }
      case 0b01: { // "10": 16-bit sign-extended
        const u32 v = static_cast<u32>(br.get(16));
        return static_cast<u32>(static_cast<i32>(v << 16) >> 16);
      }
      default: // "11": raw
        return static_cast<u32>(br.get(32));
    }
}

/**
 * One round of the 32x32 bit-matrix transpose below: for every row pair
 * (i, i + J) with bit J of i clear, swap the high J-bit halves of row i's
 * 2J-bit groups with the low halves of row i + J's.
 */
template <unsigned J, u32 Mask>
inline void
transposeRound(u32 *m)
{
    for (unsigned k = 0; k < 32; k += 2 * J) {
        for (unsigned i = k; i < k + J; ++i) {
            const u32 t = ((m[i] >> J) ^ m[i + J]) & Mask;
            m[i] ^= t << J;
            m[i + J] ^= t;
        }
    }
}

/**
 * In-place transpose of a 32x32 bit matrix: afterwards bit i of m[b] is
 * what bit b of m[i] was. Five rounds of masked swaps exchange ever
 * smaller off-diagonal blocks (16x16, 8x8, ..., 1x1). The transpose is
 * its own inverse.
 */
void
transpose32(u32 *m)
{
    transposeRound<16, 0x0000FFFFu>(m);
    transposeRound<8, 0x00FF00FFu>(m);
    transposeRound<4, 0x0F0F0F0Fu>(m);
    transposeRound<2, 0x33333333u>(m);
    transposeRound<1, 0x55555555u>(m);
}

} // namespace

std::size_t
BpcCompressor::compressInto(const u8 *data, u8 *out,
                            CompressionScratch &) const
{
    u32 words[kWordsPerEntry];
    loadWords(data, words);

    // Delta transform. Delta i is 33 bits: the low 32 are the wrapping
    // difference and bit 32 (the sign) is the borrow of the subtract.
    // Row i of the DBX matrix holds delta i's adjacent-bit XOR, bit b =
    // d[b] ^ d[b+1], so column b of the rows is DBX plane b; row 31 is
    // zero (31 deltas). The top plane DBX[32] = DBP[32] is gathered
    // straight from the borrows.
    u32 dbx[kWordsPerEntry];
    u32 dbp_or = 0; // bit b set iff DBP plane b (b < 32) is nonzero
    u32 top = 0;    // DBX/DBP plane 32
    for (unsigned i = 0; i < kPlaneBits; ++i) {
        const u32 d = words[i + 1] - words[i];
        const u32 borrow = words[i + 1] < words[i] ? 1u : 0u;
        dbx[i] = d ^ (d >> 1) ^ (borrow << 31);
        dbp_or |= d;
        top |= borrow << i;
    }
    dbx[kPlaneBits] = 0;
    transpose32(dbx); // dbx[b] is now DBX plane b, b < 32

    FixedBitWriter bw(out, kMaxEncodedBytes);
    bw.put(0, 1); // format tag: 0 = BPC, 1 = raw fallback
    encodeBase(bw, words[0]);

    // Emit planes MSB-first so that the sign-extension planes of smooth
    // data coalesce into long zero runs.
    unsigned zero_run = 0;
    for (int b = kTopPlane; b >= 0; --b) {
        const u32 x = b == kTopPlane ? top : dbx[b];
        if (x == 0) {
            ++zero_run;
            continue;
        }
        emitZeroPlanes(bw, zero_run);
        zero_run = 0;

        // DBP[32] = DBX[32] is nonzero here, so the DBP-zero shortcut
        // can only apply below the top plane.
        const bool dbp_zero = b < kTopPlane && ((dbp_or >> b) & 1u) == 0;
        const unsigned pos = static_cast<unsigned>(__builtin_ctz(x));
        if (x == kPlaneMask) {
            bw.put(kSymAllOnes, 5);
        } else if (dbp_zero) {
            // DBX nonzero but the underlying DBP plane is zero: tell the
            // decoder directly (5-bit shortcut instead of a raw plane).
            bw.put(kSymDbpZero, 5);
        } else if (x == (3u << pos)) {
            // Planes have 31 bits, so pos + 1 < kPlaneBits holds here.
            bw.put(kSymTwoOnes | (u64{pos} << 5), 10);
        } else if (x == (1u << pos)) {
            bw.put(kSymOneOne | (u64{pos} << 5), 10);
        } else {
            bw.put(kSymRaw | (u64{x} << 1), 32);
        }
    }
    emitZeroPlanes(bw, zero_run);

    if (bw.sizeBits() >= kRawBits + 1) {
        // Transform expanded the data: fall back to a tagged raw copy,
        // overwriting the transformed stream from the start of `out`.
        // Little-endian words put LSB-first are the entry's bytes in
        // order, so this is the tag bit followed by the entry verbatim.
        bw.reset();
        bw.put(1, 1);
        for (unsigned i = 0; i < kWordsPerEntry; ++i)
            bw.put(words[i], 32);
    }
    return bw.sizeBits();
}

void
BpcCompressor::decompressFrom(const u8 *payload, std::size_t size_bits,
                              u8 *out) const
{
    BitReader br(payload, size_bits);
    u32 words[kWordsPerEntry];

    if (br.get(1)) { // raw fallback
        for (unsigned i = 0; i < kWordsPerEntry; ++i)
            words[i] = static_cast<u32>(br.get(32));
        storeWords(words, out);
        return;
    }

    const u32 base = decodeBase(br);

    // Reconstruct per-plane DBX values (or direct DBP-zero markers),
    // MSB-first to match the encoder. Every symbol fits in one 32-bit
    // peek: branch on its prefix bits, then skip the whole symbol.
    u32 dbx[kPlanes] = {};
    u64 dbp_zero = 0; // bit b set: DBP plane b is zero (shortcut code)
    int b = kTopPlane;
    while (b >= 0) {
        const u64 v = br.peek(32);
        if (v & 1u) { // "1": raw plane
            br.skip(32);
            dbx[b--] = static_cast<u32>(v >> 1) & kPlaneMask;
        } else if ((v & 0b11) == kSymZeroSingle) { // "01"; dbx[] is zeroed
            br.skip(2);
            --b;
        } else if ((v & 0b111) == kSymZeroRun) { // "001"
            br.skip(8);
            const int run = static_cast<int>((v >> 3) & 31) + 2;
            BUDDY_CHECK(run <= b + 1, "BPC zero run overruns planes");
            b -= run;
        } else { // "000xx" family
            const u64 sym = v & 0b11111;
            const unsigned pos = static_cast<unsigned>(v >> 5) & 31;
            if (sym == kSymAllOnes) {
                br.skip(5);
                dbx[b] = kPlaneMask;
            } else if (sym == kSymDbpZero) {
                br.skip(5);
                dbp_zero |= 1ull << b;
            } else if (sym == kSymTwoOnes) {
                br.skip(10);
                dbx[b] = 3u << pos;
            } else { // kSymOneOne
                br.skip(10);
                dbx[b] = 1u << pos;
            }
            --b;
        }
    }

    // Invert the XOR transform top-down: DBP[b] = DBX[b] ^ DBP[b+1].
    u32 dbp = dbx[kTopPlane];
    for (int p = kTopPlane - 1; p >= 0; --p) {
        dbp = ((dbp_zero >> p) & 1u) ? 0 : (dbx[p] ^ dbp);
        dbx[p] = dbp;
    }

    // Invert the bit-plane transform: row i is the low 32 bits of delta
    // i. Bit 32 (the sign) cannot change a sum mod 2^32, so plain u32
    // adds invert the delta transform.
    transpose32(dbx);
    words[0] = base;
    for (unsigned i = 0; i < kPlaneBits; ++i)
        words[i + 1] = words[i] + dbx[i];
    storeWords(words, out);
}

} // namespace buddy
