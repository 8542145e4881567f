// EvictionEngine::make_room non-progress guard (docs/multitenancy.md).
//
// Regression: make_room loops "evict a round, re-check the deficit" until
// the initiator's admissible frames reach the target. A round whose
// evictions free nothing the initiator can use — victims with no resident
// pages, or an at-quota initiator in partitioned mode whose own chunks
// can't close the gap — used to spin that loop forever (or drain every
// chunk in the system). It must instead report starvation and return.
#include "uvm/eviction_engine.hpp"

#include <gtest/gtest.h>

#include "prefetch/prefetcher.hpp"
#include "sim/event_queue.hpp"
#include "tenancy/tenant.hpp"
#include "tlb/page_table.hpp"
#include "uvm/chain_set.hpp"
#include "uvm/driver_types.hpp"
#include "uvm/frame_pool.hpp"
#include "policy/lru.hpp"

namespace uvmsim {
namespace {

struct EngineFixture {
  EventQueue eq;
  ChainSet chains{64};
  PageTable pt{4 * kLargePages};  // covers every tenant base used below
  FramePool frames;
  DriverStats stats;
  NoPrefetcher prefetcher;
  EvictionEngine engine;

  explicit EngineFixture(u64 capacity_pages)
      : frames(capacity_pages, /*watermark_pages=*/0),
        engine(eq, chains, pt, frames, /*pcie_page_cycles=*/100, stats) {
    chains.set_policy(0, std::make_unique<LruPolicy>(chains.chain(0)));
    engine.set_prefetcher(&prefetcher);
  }

  /// Insert `chunk` with all kChunkPages resident: pages mapped, frames
  /// reserved and bound — the state a completed migration leaves behind.
  void add_resident_chunk(ChunkId chunk, TenantId owner = kNoTenant) {
    chains.chain_of_chunk(chunk).insert(chunk);
    ChunkEntry& e = *chains.find(chunk);
    frames.reserve(kChunkPages, owner);
    const PageId base = first_page_of_chunk(chunk);
    for (u32 i = 0; i < kChunkPages; ++i) {
      e.resident.set(i);
      pt.map(base + i, frames.allocate());
    }
  }

  /// Insert `chunk` as a shell: present in the chain, zero resident pages
  /// (every page already unmapped — e.g. surrendered to a fetching peer).
  void add_shell_chunk(ChunkId chunk) {
    chains.chain_of_chunk(chunk).insert(chunk);
  }
};

TEST(MakeRoom, EvictsResidentChunksUntilTargetIsFree) {
  EngineFixture f(4 * kChunkPages);
  for (ChunkId c = 0; c < 4; ++c) f.add_resident_chunk(c);
  ASSERT_EQ(f.frames.free_frames(), 0u);

  const auto r = f.engine.make_room(2 * kChunkPages);
  EXPECT_FALSE(r.starved);
  EXPECT_EQ(r.evicted, 2u);
  EXPECT_GE(f.frames.free_frames(), 2 * kChunkPages);
  EXPECT_EQ(f.stats.chunks_evicted, 2u);
}

TEST(MakeRoom, AllVictimsPinnedReportsStarvation) {
  EngineFixture f(2 * kChunkPages);
  for (ChunkId c = 0; c < 2; ++c) {
    f.add_resident_chunk(c);
    f.chains.find(c)->pin_count = 1;
  }
  const auto r = f.engine.make_room(kChunkPages);
  EXPECT_TRUE(r.starved);
  EXPECT_EQ(r.evicted, 0u);
}

// The regression itself: victims that free no frames must not livelock the
// deficit loop. With three shell chunks and a 16-page target, each round
// selects ceil(16/16) = 1 victim, evicts it, and frees nothing; unguarded,
// the loop would spin selecting the next shell until the chain ran dry and
// then keep spinning on an empty selection. The guard turns the first
// fruitless round into starvation.
TEST(MakeRoom, ShellChunkRoundWithoutProgressStarvesInsteadOfLooping) {
  EngineFixture f(kChunkPages);
  f.frames.reserve(kChunkPages);  // pool fully committed elsewhere
  for (ChunkId c = 0; c < 3; ++c) f.add_shell_chunk(c);

  const auto r = f.engine.make_room(kChunkPages);
  EXPECT_TRUE(r.starved);
  EXPECT_EQ(r.evicted, 1u);            // one fruitless round, then stop
  EXPECT_EQ(f.chains.chain(0).size(), 2u);  // the other shells survive
  EXPECT_EQ(f.frames.free_frames(), 0u);
}

// Partitioned mode, at-quota initiator: the only victims partitioning
// allows are the initiator's own chunks, and when those free nothing (shell
// chunks here), admissible_frames(initiator) = min(free, quota headroom)
// cannot move. The round must end in starvation, not a loop.
TEST(MakeRoom, AtQuotaPartitionedInitiatorStarvesWithoutProgress) {
  EngineFixture f(4 * kChunkPages);
  TenantTable table;
  const TenantId a = table.add("a", 2 * kChunkPages);
  const TenantId b = table.add("b", 2 * kChunkPages);
  table.compute_quotas(4 * kChunkPages);
  f.frames.attach_tenants(&table, TenantMode::kPartitioned);
  f.chains.configure_domains(2, &table);
  for (u64 d = 0; d < 2; ++d)
    f.chains.set_policy(d, std::make_unique<LruPolicy>(f.chains.chain(d)));
  f.engine.set_tenancy(&table, TenantMode::kPartitioned, EvictionScope::kGlobal);

  // Tenant a sits exactly at quota; its one resident-set-free shell chunk
  // is the only victim partitioning will offer it.
  table.note_reserved(a, table.quota_frames(a));
  f.frames.reserve(table.quota_frames(a));
  const ChunkId own = table.info(a).base / kChunkPages;
  f.add_shell_chunk(own);
  ASSERT_EQ(f.frames.admissible_frames(a), 0u);

  const auto r = f.engine.make_room(kChunkPages, a);
  EXPECT_TRUE(r.starved);
  EXPECT_LE(r.evicted, 1u);
  // Tenant b's world is untouched: no cross-tenant drain happened.
  EXPECT_EQ(table.stats(b).chunks_evicted, 0u);
}

}  // namespace
}  // namespace uvmsim
