/**
 * @file
 * Bit-granularity serialization used by the compression codecs.
 *
 * Compressed memory entries are variable-length bit strings; the writers
 * and BitReader provide LSB-first bit packing so that encode/decode pairs
 * are bit-exact and the compressed size in bits can be measured
 * precisely. Bit i of the stream is bit (i % 8) of byte i / 8.
 *
 * FixedBitWriter (the codecs' writer) and BitReader move whole words:
 * a put() or get() of up to 64 bits is one or two unaligned 64-bit
 * accesses, not a loop over bits or bytes, and BitReader::peek()/skip()
 * let a decoder branch on a symbol's prefix bits and consume the symbol
 * in one step. BitWriter is the simple growable writer kept for tests
 * and the frozen seed encoder in the micro benchmark.
 */

#pragma once

#include <cstddef>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace buddy {

/** Append-only LSB-first bit packer. */
class BitWriter
{
  public:
    BitWriter() = default;

    /** Append the low @p nbits bits of @p value (nbits in [0, 64]). */
    void
    put(u64 value, unsigned nbits)
    {
        BUDDY_CHECK(nbits <= 64, "BitWriter::put supports at most 64 bits");
        for (unsigned i = 0; i < nbits; ++i) {
            putBit((value >> i) & 1u);
        }
    }

    /** Append a single bit. */
    void
    putBit(bool bit)
    {
        const std::size_t byte = bitCount_ / 8;
        const unsigned off = bitCount_ % 8;
        if (byte >= bytes_.size())
            bytes_.push_back(0);
        if (bit)
            bytes_[byte] |= static_cast<u8>(1u << off);
        ++bitCount_;
    }

    /** Number of bits written so far. */
    std::size_t sizeBits() const { return bitCount_; }

    /** Number of bytes needed to hold the written bits (rounded up). */
    std::size_t sizeBytes() const { return (bitCount_ + 7) / 8; }

    /** Backing byte storage (padded with zero bits in the last byte). */
    const std::vector<u8> &bytes() const { return bytes_; }

  private:
    std::vector<u8> bytes_;
    std::size_t bitCount_ = 0;
};

/** Mask of the low @p nbits bits (nbits in [0, 64]). */
inline u64
lowBits(unsigned nbits)
{
    return nbits >= 64 ? ~0ull : (1ull << nbits) - 1;
}

/**
 * LSB-first bit packer over a caller-provided fixed buffer.
 *
 * The allocation-free sibling of BitWriter, used on the hot batch path:
 * codecs encode into a CompressionScratch buffer that is reused across a
 * whole AccessBatch, so no heap traffic occurs per entry. Each put()
 * merges the value with the bits already in its first byte and stores
 * whole words, writing zeros above the new bits; so bytes past the write
 * position need no clearing, reuse of a dirty scratch buffer is safe, and
 * the padding bits of the last byte are zero. Bytes past sizeBytes()
 * (but inside the buffer) may be overwritten. Overflowing the buffer is
 * a checked panic.
 */
class FixedBitWriter
{
  public:
    FixedBitWriter(u8 *buf, std::size_t cap_bytes)
        : buf_(buf), capBytes_(cap_bytes)
    {}

    /** Append the low @p nbits bits of @p value (nbits in [0, 64]). */
    void
    put(u64 value, unsigned nbits)
    {
        BUDDY_CHECK(nbits <= 64,
                    "FixedBitWriter::put supports at most 64 bits");
        BUDDY_CHECK(bitCount_ + nbits <= capBytes_ * 8,
                    "FixedBitWriter overflow");
        if (nbits == 0)
            return;
        value &= lowBits(nbits);
        const std::size_t byte = bitCount_ / 8;
        const unsigned off = bitCount_ % 8;
        // Keep the bits already written in the first byte.
        const u64 kept = off ? (buf_[byte] & ((1u << off) - 1)) : 0;
        const u64 lo = kept | (value << off);
        // Bytes the new bits reach: up to 9 (64 bits at offset 7).
        const std::size_t touched = (off + nbits + 7) / 8;
        if (byte + 8 <= capBytes_) {
            std::memcpy(buf_ + byte, &lo, 8);
        } else {
            // Near the end of the buffer: store only the bytes in use.
            for (std::size_t k = 0; k < touched && k < 8; ++k)
                buf_[byte + k] = static_cast<u8>(lo >> (8 * k));
        }
        if (touched > 8)
            buf_[byte + 8] = static_cast<u8>(value >> (64 - off));
        bitCount_ += nbits;
    }

    /** Append a single bit. */
    void putBit(bool bit) { put(bit ? 1 : 0, 1); }

    /** Restart the writer at bit zero (reuses the same buffer). */
    void reset() { bitCount_ = 0; }

    /** Number of bits written so far. */
    std::size_t sizeBits() const { return bitCount_; }

    /** Number of bytes needed to hold the written bits (rounded up). */
    std::size_t sizeBytes() const { return (bitCount_ + 7) / 8; }

    /** The backing buffer (valid for sizeBytes() bytes). */
    const u8 *data() const { return buf_; }

  private:
    u8 *buf_;
    std::size_t capBytes_;
    std::size_t bitCount_ = 0;
};

/**
 * LSB-first bit unpacker over a byte buffer produced by a bit writer.
 *
 * Reads one unaligned 64-bit word per access where at least eight
 * payload bytes remain, and byte by byte in the last few bytes: it never
 * loads a byte at or past ceil(size_bits / 8), so a caller may pass a
 * buffer of exactly that size. Bits at or past size_bits (the padding of
 * the last byte) read as zero in peek() and are never returned by get();
 * consuming them is a checked "BitReader overrun" panic.
 */
class BitReader
{
  public:
    /** Widest peek(): one 64-bit load at a bit offset of up to 7. */
    static constexpr unsigned kMaxPeekBits = 57;

    BitReader(const u8 *data, std::size_t size_bits)
        : data_(data), sizeBits_(size_bits), sizeBytes_((size_bits + 7) / 8)
    {}

    explicit BitReader(const BitWriter &w)
        : BitReader(w.bytes().data(), w.sizeBits())
    {}

    /**
     * The next @p nbits bits (nbits <= kMaxPeekBits) without consuming
     * them; bits past the end of the payload read as zero.
     */
    u64
    peek(unsigned nbits) const
    {
        BUDDY_CHECK(nbits <= kMaxPeekBits,
                    "BitReader::peek supports at most 57 bits");
        const std::size_t byte = pos_ / 8;
        u64 word = 0;
        if (byte + 8 <= sizeBytes_) {
            std::memcpy(&word, data_ + byte, 8);
        } else {
            for (std::size_t k = 0; byte + k < sizeBytes_; ++k)
                word |= static_cast<u64>(data_[byte + k]) << (8 * k);
        }
        const std::size_t avail = sizeBits_ - pos_;
        const unsigned n =
            avail < nbits ? static_cast<unsigned>(avail) : nbits;
        return (word >> (pos_ % 8)) & lowBits(n);
    }

    /** Consume @p nbits bits (checked against the payload size). */
    void
    skip(std::size_t nbits)
    {
        BUDDY_CHECK(nbits <= sizeBits_ - pos_, "BitReader overrun");
        pos_ += nbits;
    }

    /** Read @p nbits bits (LSB first) as an unsigned value. */
    u64
    get(unsigned nbits)
    {
        BUDDY_CHECK(nbits <= 64, "BitReader::get supports at most 64 bits");
        if (nbits > kMaxPeekBits) {
            const u64 lo = get(32);
            return lo | (get(nbits - 32) << 32);
        }
        const u64 v = peek(nbits);
        skip(nbits);
        return v;
    }

    /** Read one bit. */
    bool getBit() { return get(1) != 0; }

    /** Bits consumed so far. */
    std::size_t pos() const { return pos_; }

    /** Bits remaining. */
    std::size_t remaining() const { return sizeBits_ - pos_; }

  private:
    const u8 *data_;
    std::size_t sizeBits_;
    std::size_t sizeBytes_;
    std::size_t pos_ = 0;
};

} // namespace buddy
