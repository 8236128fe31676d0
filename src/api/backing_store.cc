#include "api/backing_store.h"

#include <cstdio>
#include <cstring>

#include "common/log.h"

namespace buddy {
namespace api {

namespace {

/** Shared flat-memory implementation behind every in-process kind. */
class FlatStore : public BackingStore
{
  public:
    FlatStore(const char *kind, u64 capacity_bytes,
              const timing::LinkTiming &timing)
        : BackingStore(kind, timing), data_(capacity_bytes, 0)
    {}

    u64 capacity() const override { return data_.size(); }

  protected:
    /**
     * True if [addr, addr + len) lies inside the store. Written so that
     * no sum can wrap: `addr + len` overflows for addr near 2^64.
     */
    bool
    inRange(Addr addr, std::size_t len) const
    {
        return len <= data_.size() && addr <= data_.size() - len;
    }

    void
    doWrite(Addr addr, const u8 *src, std::size_t len) override
    {
        BUDDY_CHECK(inRange(addr, len),
                    "backing-store write out of range");
        std::memcpy(data_.data() + addr, src, len);
    }

    void
    doRead(Addr addr, u8 *dst, std::size_t len) const override
    {
        BUDDY_CHECK(inRange(addr, len),
                    "backing-store read out of range");
        std::memcpy(dst, data_.data() + addr, len);
    }

    void
    doFill(Addr addr, u8 value, std::size_t len) override
    {
        BUDDY_CHECK(inRange(addr, len),
                    "backing-store fill out of range");
        std::memset(data_.data() + addr, value, len);
    }

  private:
    std::vector<u8> data_;
};

/**
 * NVLink peer access to another shard's device memory. The bytes model
 * a region reserved in the peer GPU's memory exclusively for this
 * shard's carve-out, so the storage is owned here (no cross-shard data
 * races); what distinguishes the kind is its NVLink-peer link timing
 * and the recorded peer topology, which the sharded engine wires as a
 * ring (shard s spills into shard (s+1) mod N).
 */
class PeerStore : public FlatStore
{
  public:
    PeerStore(u64 capacity_bytes, const timing::LinkTiming &timing,
              int peer_ordinal)
        : FlatStore("peer", capacity_bytes, timing), peer_(peer_ordinal)
    {}

    int peerOrdinal() const override { return peer_; }

  private:
    int peer_;
};

} // namespace

std::unique_ptr<BackingStore>
makeBackingStore(const std::string &kind, u64 capacity_bytes)
{
    return makeBackingStore(kind, capacity_bytes,
                            timing::defaultLinkTiming(kind));
}

std::unique_ptr<BackingStore>
makeBackingStore(const std::string &kind, u64 capacity_bytes,
                 const timing::LinkTiming &timing, int peer_ordinal)
{
    if (kind == "dram")
        return std::make_unique<FlatStore>("dram", capacity_bytes, timing);
    if (kind == "host-um")
        return std::make_unique<FlatStore>("host-um", capacity_bytes,
                                           timing);
    if (kind == "remote")
        return std::make_unique<FlatStore>("remote", capacity_bytes,
                                           timing);
    if (kind == "peer")
        return std::make_unique<PeerStore>(capacity_bytes, timing,
                                           peer_ordinal);

    std::string known;
    for (const auto &k : backingStoreKinds()) {
        if (!known.empty())
            known += ", ";
        known += k;
    }
    std::fprintf(stderr,
                 "unknown backing store \"%s\"; known kinds: %s\n",
                 kind.c_str(), known.c_str());
    BUDDY_FATAL("unknown backing-store kind");
}

std::vector<std::string>
backingStoreKinds()
{
    return {"dram", "host-um", "remote", "peer"};
}

} // namespace api
} // namespace buddy
