/**
 * @file
 * Round-trip and accounting tests of the "remote" BackingStore: the
 * disaggregated/far-memory backend whose per-operation counters a
 * timing model charges fabric round trips against. Covered under
 * direct use, behind a single controller's buddy carve-out, and behind
 * a sharded engine where every shard owns its own remote store. The
 * range checks of the flat stores are exercised at the top of the
 * address space, where `addr + len` would wrap.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "api/backing_store.h"
#include "core/controller.h"
#include "engine/engine.h"
#include "workloads/patterns.h"

namespace buddy {
namespace {

TEST(RemoteBackingStore, DirectRoundTripAndAccounting)
{
    const auto store = makeBackingStore("remote", 256 * KiB);
    EXPECT_STREQ(store->kind(), "remote");
    EXPECT_EQ(store->capacity(), 256 * KiB);
    EXPECT_EQ(store->roundTrips(), 0u);

    u8 src[kEntryBytes], dst[kEntryBytes];
    Rng rng(7);
    const std::size_t kOps = 64;
    for (std::size_t i = 0; i < kOps; ++i) {
        for (auto &b : src)
            b = static_cast<u8>(rng.below(256));
        const Addr addr = (i * 3 % kOps) * kEntryBytes;
        store->write(addr, src, kEntryBytes);
        store->read(addr, dst, kEntryBytes);
        ASSERT_EQ(std::memcmp(src, dst, kEntryBytes), 0) << "op " << i;
    }

    // Exact accounting: one write op + one read op per iteration, each
    // moving one full entry; round trips count both directions.
    EXPECT_EQ(store->writeOps(), kOps);
    EXPECT_EQ(store->readOps(), kOps);
    EXPECT_EQ(store->bytesWritten(), kOps * kEntryBytes);
    EXPECT_EQ(store->bytesRead(), kOps * kEntryBytes);
    EXPECT_EQ(store->roundTrips(), 2 * kOps);

    // Every round trip was charged through the store's LinkModel at the
    // kind's default timing: closed-form cycle total.
    const timing::LinkTiming t = timing::defaultLinkTiming("remote");
    const auto xfer = [&](u64 bpc) {
        return (kEntryBytes + bpc - 1) / bpc;
    };
    EXPECT_EQ(store->cyclesElapsed(),
              kOps * (t.latency + xfer(t.writeBytesPerCycle)) +
                  kOps * (t.latency + xfer(t.readBytesPerCycle)));

    // fill() counts as one write operation of len bytes.
    store->fill(0, 0xAA, 512);
    EXPECT_EQ(store->writeOps(), kOps + 1);
    EXPECT_EQ(store->bytesWritten(), kOps * kEntryBytes + 512);
}

TEST(RemoteBackingStore, ControllerDrivenAccounting)
{
    BuddyConfig cfg;
    cfg.deviceBytes = 8 * MiB;
    cfg.buddyBackend = "remote";
    BuddyController gpu(cfg);
    const BackingStore &remote = gpu.carveOut().store();
    EXPECT_STREQ(remote.kind(), "remote");
    EXPECT_EQ(remote.capacity(), cfg.deviceBytes * cfg.carveOutRatio);

    const auto id = gpu.allocate("a", 128 * KiB, CompressionTarget::Ratio4);
    ASSERT_TRUE(id.has_value());
    const Addr va = gpu.allocations().at(*id).va;

    // Incompressible entries under a 4x target spill to the carve-out:
    // one remote write per entry write, one remote read per entry read.
    Rng rng(3);
    const std::size_t n = 64;
    std::vector<u8> data(n * kEntryBytes), out(n * kEntryBytes);
    for (auto &b : data)
        b = static_cast<u8>(rng.below(256));

    AccessBatch plan;
    for (std::size_t i = 0; i < n; ++i)
        plan.write(va + i * kEntryBytes, data.data() + i * kEntryBytes);
    gpu.execute(plan);
    EXPECT_EQ(remote.writeOps(), n);
    EXPECT_EQ(remote.readOps(), 0u);

    plan.clear();
    for (std::size_t i = 0; i < n; ++i)
        plan.read(va + i * kEntryBytes, out.data() + i * kEntryBytes);
    gpu.execute(plan);
    EXPECT_EQ(remote.readOps(), n);
    EXPECT_EQ(remote.roundTrips(), 2 * n);
    EXPECT_EQ(std::memcmp(data.data(), out.data(), n * kEntryBytes), 0);

    // Reads reassemble exactly the spilled bytes, and every
    // incompressible entry (need bucket 5: >96 stored bytes) leaves at
    // least 65 bytes beyond its 32 B device slot in the carve-out.
    EXPECT_EQ(remote.bytesRead(), remote.bytesWritten());
    EXPECT_GE(remote.bytesWritten(), n * 65);
    EXPECT_LE(remote.bytesWritten(), n * (kEntryBytes - kSectorBytes));
}

TEST(RemoteBackingStore, EngineDrivenAccountingAcrossShards)
{
    EngineConfig cfg;
    cfg.shards = 4;
    cfg.shard.deviceBytes = 8 * MiB;
    cfg.shard.buddyBackend = "remote";
    ShardedEngine eng(cfg);

    // Each shard owns its own remote carve-out of the configured size.
    for (unsigned s = 0; s < eng.shardCount(); ++s) {
        EXPECT_STREQ(eng.shard(s).carveOut().store().kind(), "remote");
        EXPECT_EQ(eng.shard(s).carveOut().store().capacity(),
                  cfg.shard.deviceBytes * cfg.shard.carveOutRatio);
    }

    std::vector<Addr> vas;
    for (std::size_t a = 0; a < 8; ++a) {
        const auto id = eng.allocate("a" + std::to_string(a), 64 * KiB,
                                     CompressionTarget::Ratio4);
        ASSERT_TRUE(id.has_value());
        const Addr base = eng.allocations().at(*id).va;
        for (std::size_t i = 0; i < 64 * KiB / kEntryBytes; ++i)
            vas.push_back(base + i * kEntryBytes);
    }

    Rng rng(11);
    std::vector<u8> data(vas.size() * kEntryBytes);
    std::vector<u8> out(vas.size() * kEntryBytes);
    for (auto &b : data)
        b = static_cast<u8>(rng.below(256));

    AccessBatch plan;
    for (std::size_t i = 0; i < vas.size(); ++i)
        plan.write(vas[i], data.data() + i * kEntryBytes);
    eng.execute(plan);
    plan.clear();
    for (std::size_t i = 0; i < vas.size(); ++i)
        plan.read(vas[i], out.data() + i * kEntryBytes);
    eng.execute(plan);

    EXPECT_EQ(std::memcmp(data.data(), out.data(), data.size()), 0);

    // Summed across shards the accounting is exactly the single-store
    // accounting: one write + one read round trip per (incompressible)
    // entry, split by wherever each allocation was placed.
    u64 write_ops = 0, read_ops = 0, bytes_written = 0, bytes_read = 0;
    unsigned shards_touched = 0;
    for (unsigned s = 0; s < eng.shardCount(); ++s) {
        const BackingStore &store = eng.shard(s).carveOut().store();
        write_ops += store.writeOps();
        read_ops += store.readOps();
        bytes_written += store.bytesWritten();
        bytes_read += store.bytesRead();
        if (store.roundTrips() > 0)
            ++shards_touched;
    }
    EXPECT_EQ(write_ops, vas.size());
    EXPECT_EQ(read_ops, vas.size());
    EXPECT_EQ(bytes_read, bytes_written);
    EXPECT_GE(bytes_written, vas.size() * 65);
    EXPECT_LE(bytes_written, vas.size() * (kEntryBytes - kSectorBytes));
    EXPECT_GT(shards_touched, 1u) << "hash placed everything on one shard";
}

TEST(BackingStoreDeathTest, RangeChecksDoNotWrapNearTopOfAddressSpace)
{
    // addr + len wraps past 2^64 to a small value; a check written as
    // `addr + len <= capacity` would pass and memcpy would run wild.
    for (const auto &kind : api::backingStoreKinds()) {
        const auto store = makeBackingStore(kind, 4 * KiB);
        u8 buf[kEntryBytes] = {};
        const Addr top = ~Addr{0} - 7;
        EXPECT_DEATH(store->write(top, buf, kEntryBytes), "out of range")
            << kind;
        EXPECT_DEATH(store->read(top, buf, kEntryBytes), "out of range")
            << kind;
        EXPECT_DEATH(store->fill(top, 0, kEntryBytes), "out of range")
            << kind;
        // One byte past the end and an over-long length also die.
        EXPECT_DEATH(store->read(4 * KiB, buf, 1), "out of range") << kind;
        EXPECT_DEATH(store->fill(0, 0, 4 * KiB + 1), "out of range")
            << kind;
        // The last in-range byte is fine.
        store->write(4 * KiB - 1, buf, 1);
    }
}

} // namespace
} // namespace buddy
