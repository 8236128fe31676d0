/**
 * @file
 * Bit-Plane Compression (BPC), the codec Buddy Compression builds on.
 *
 * Re-implementation of the algorithm of Kim, Sullivan, Choukse and Erez,
 * "Bit-Plane Compression: Transforming Data for Better Compression in
 * Many-Core Architectures" (ISCA 2016), as selected by the Buddy
 * Compression paper (Section 2.4).
 *
 * A 128 B memory entry is viewed as 32 x 32-bit words:
 *   1. Delta transform: 31 deltas d[i] = w[i+1] - w[i] (33-bit two's
 *      complement) plus the 32-bit base word w[0].
 *   2. Bit-plane transform: DBP[b] (b = 0..32) collects bit b of every
 *      delta, giving 33 planes of 31 bits each.
 *   3. Adjacent-plane XOR: DBX[b] = DBP[b] ^ DBP[b+1], DBX[32] = DBP[32].
 *      Sign-extension makes high planes of smooth data identical, so their
 *      DBX planes become zero and run-length encode extremely well.
 *   4. Each DBX plane is encoded with a prefix-free pattern code
 *      (zero runs, all-ones, single/double ones, raw fallback), and the
 *      base word with a small sign-extension code.
 *
 * The encoder falls back to a tagged raw copy whenever the transformed
 * encoding would exceed the original 1024 bits, so the compressed size is
 * bounded by 1025 bits. Encode/decode is bit-exact and covered by
 * property tests; golden digests in tests/test_codec_fuzz.cc pin the
 * encoding itself.
 *
 * Both directions work on whole words. The encoder builds the 31 DBX rows
 * (delta i's adjacent-bit XOR) in one pass and turns them into planes
 * 0..31 with a single in-place 32x32 bit-matrix transpose; plane 32 (the
 * delta signs) is gathered as one word. Symbol positions come from a
 * count-trailing-zeros, and each symbol (prefix plus payload) is one
 * FixedBitWriter::put(). The decoder peeks 32 bits per symbol, branches
 * on the prefix and skips the symbol once, undoes the XOR top-down,
 * transposes back and rebuilds the words with plain u32 adds (the 33rd
 * delta bit cannot change a sum mod 2^32).
 */

#pragma once

#include "compress/compressor.h"

namespace buddy {

/** Bit-Plane Compression codec (see file header). */
class BpcCompressor : public Compressor
{
  public:
    const char *name() const override { return "bpc"; }

    std::size_t compressInto(const u8 *data, u8 *out,
                             CompressionScratch &scratch) const override;
    void decompressFrom(const u8 *payload, std::size_t size_bits,
                        u8 *out) const override;

    /** Number of delta bit-planes (32 delta bits + carry/sign bit). */
    static constexpr unsigned kPlanes = 33;

    /** Bits per plane = number of deltas (32 words -> 31 deltas). */
    static constexpr unsigned kPlaneBits = 31;
};

} // namespace buddy
