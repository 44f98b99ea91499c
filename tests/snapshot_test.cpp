// Tests for the copy-on-write snapshot arena (util/snapshot.h).

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "util/bitset.h"
#include "util/snapshot.h"

namespace latgossip {
namespace {

Bitset bits_with(std::size_t size, std::initializer_list<std::size_t> set) {
  Bitset b(size);
  for (std::size_t i : set) b.set(i);
  return b;
}

TEST(SnapshotArena, CaptureCopiesContentsAndCachesCount) {
  SnapshotArena arena(100);
  const Bitset src = bits_with(100, {0, 17, 63, 64, 99});
  const SnapshotRef ref = arena.capture(src);
  ASSERT_TRUE(ref);
  EXPECT_TRUE(ref.bits() == src);
  EXPECT_EQ(ref.count(), 5u);
  EXPECT_EQ(arena.allocated_blocks(), 1u);
  EXPECT_EQ(arena.captures(), 1u);
}

TEST(SnapshotArena, CaptureWithKnownCountSkipsRecount) {
  SnapshotArena arena(64);
  const Bitset src = bits_with(64, {1, 2, 3});
  const SnapshotRef ref = arena.capture(src, 3);
  EXPECT_TRUE(ref.bits() == src);
  EXPECT_EQ(ref.count(), 3u);
}

TEST(SnapshotArena, SnapshotIsImmutableAfterSourceMutates) {
  SnapshotArena arena(32);
  Bitset src = bits_with(32, {4});
  const SnapshotRef ref = arena.capture(src);
  src.set(5);
  EXPECT_FALSE(ref.bits().test(5));
  EXPECT_EQ(ref.count(), 1u);
}

TEST(SnapshotArena, RefCopyBumpsSharingAndMoveSteals) {
  SnapshotArena arena(16);
  SnapshotRef a = arena.capture(bits_with(16, {7}));
  const SnapshotRef b = a;  // copy: same block
  EXPECT_EQ(a.id(), b.id());
  const SnapshotRef c = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): asserting the move
  EXPECT_EQ(c.id(), b.id());
  EXPECT_EQ(arena.allocated_blocks(), 1u);
}

TEST(SnapshotArena, LastRefRecyclesBlockThroughPool) {
  SnapshotArena arena(16);
  const void* first_id = nullptr;
  {
    const SnapshotRef ref = arena.capture(bits_with(16, {1}));
    first_id = ref.id();
    EXPECT_EQ(arena.pooled_blocks(), 0u);
  }
  EXPECT_EQ(arena.pooled_blocks(), 1u);
  // The next capture reuses the recycled block: no new allocation.
  const SnapshotRef again = arena.capture(bits_with(16, {2, 3}));
  EXPECT_EQ(again.id(), first_id);
  EXPECT_EQ(again.count(), 2u);
  EXPECT_EQ(arena.allocated_blocks(), 1u);
  EXPECT_EQ(arena.pooled_blocks(), 0u);
}

TEST(SnapshotArena, AllocationStopsOncePoolCoversInflightPeak) {
  SnapshotArena arena(64);
  const Bitset src = bits_with(64, {0});
  // Hold at most 3 refs at a time, over many capture generations.
  for (int round = 0; round < 50; ++round) {
    std::vector<SnapshotRef> held;
    for (int i = 0; i < 3; ++i) held.push_back(arena.capture(src));
  }
  EXPECT_EQ(arena.allocated_blocks(), 3u);
  EXPECT_EQ(arena.captures(), 150u);
}

TEST(SnapshotCache, SharedReturnsSameBlockUntilInvalidated) {
  SnapshotCache cache(4, 32);
  Bitset state = bits_with(32, {0, 1});
  const SnapshotRef a = cache.shared(0, state);
  const SnapshotRef b = cache.shared(0, state);
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(cache.arena().captures(), 1u);

  state.set(2);
  cache.invalidate(0);
  const SnapshotRef c = cache.shared(0, state, 3);
  EXPECT_NE(c.id(), a.id());
  EXPECT_EQ(c.count(), 3u);
  EXPECT_TRUE(c.bits().test(2));
  // The old snapshot is untouched by the re-capture.
  EXPECT_FALSE(a.bits().test(2));
}

TEST(SnapshotCache, SlotsAreIndependentPerNode) {
  SnapshotCache cache(2, 16);
  const Bitset s0 = bits_with(16, {0});
  const Bitset s1 = bits_with(16, {1});
  const SnapshotRef a = cache.shared(0, s0);
  const SnapshotRef b = cache.shared(1, s1);
  EXPECT_NE(a.id(), b.id());
  cache.invalidate(0);
  const SnapshotRef b2 = cache.shared(1, s1);
  EXPECT_EQ(b2.id(), b.id());  // node 1's slot survived node 0's invalidate
}

TEST(SnapshotCache, FreshAlwaysDeepCopies) {
  SnapshotCache cache(1, 16);
  const Bitset s = bits_with(16, {3});
  const SnapshotRef shared1 = cache.shared(0, s);
  const SnapshotRef f1 = cache.fresh(s);
  const SnapshotRef f2 = cache.fresh(s, 1);
  EXPECT_NE(f1.id(), shared1.id());
  EXPECT_NE(f2.id(), f1.id());
  EXPECT_TRUE(f1.bits() == s);
  EXPECT_EQ(f2.count(), 1u);
  // fresh() never touches the cached slot.
  const SnapshotRef shared2 = cache.shared(0, s);
  EXPECT_EQ(shared2.id(), shared1.id());
}

TEST(SnapshotCache, InvalidateWithSoleReferenceRefillsInPlace) {
  // When the cache holds the only reference, invalidate() keeps the block
  // and the next shared() overwrites it in place — a quiet node reuses one
  // stable block forever instead of cycling the pool.
  SnapshotCache cache(1, 16);
  Bitset state = bits_with(16, {0});
  const void* const id = cache.shared(0, state).id();
  cache.invalidate(0);
  EXPECT_EQ(cache.arena().pooled_blocks(), 0u);  // block kept, not recycled

  state.set(5);
  const SnapshotRef refreshed = cache.shared(0, state, 2);
  EXPECT_EQ(refreshed.id(), id);  // same block, new contents
  EXPECT_TRUE(refreshed.bits().test(5));
  EXPECT_EQ(refreshed.count(), 2u);
  // The refill performed a real copy: it counts as a capture.
  EXPECT_EQ(cache.arena().captures(), 2u);
  EXPECT_EQ(cache.arena().allocated_blocks(), 1u);
}

TEST(SnapshotCache, InvalidateWithInflightReferenceDropsTheBlock) {
  // When payload refs are still in flight, invalidate() must drop the
  // slot instead: the in-flight view is immutable, so the next shared()
  // copies into a different block.
  SnapshotCache cache(1, 16);
  Bitset state = bits_with(16, {0});
  SnapshotRef inflight = cache.shared(0, state);
  cache.invalidate(0);

  state.set(5);
  const SnapshotRef refreshed = cache.shared(0, state);
  EXPECT_NE(refreshed.id(), inflight.id());
  EXPECT_FALSE(inflight.bits().test(5));  // old view untouched
  EXPECT_TRUE(refreshed.bits().test(5));

  inflight.reset();  // last external ref dies -> block recycles
  EXPECT_EQ(cache.arena().pooled_blocks(), 1u);
}

TEST(SnapshotCache, EmptyCapturesShareOneBlock) {
  SnapshotCache cache(3, 64);
  const Bitset none(64);
  const SnapshotRef a = cache.shared(0, none, 0);
  const SnapshotRef b = cache.shared(1, none, 0);
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(a.count(), 0u);
  EXPECT_TRUE(a.bits() == none);
  EXPECT_EQ(cache.arena().captures(), 0u);  // nothing copied
  EXPECT_EQ(cache.arena().allocated_blocks(), 1u);
}

TEST(SnapshotCache, InvalidateNeverMarksTheEmptyBlockStale) {
  SnapshotCache cache(2, 64);
  const Bitset none(64);
  const void* const empty_id = cache.shared(0, none, 0).id();
  // Node 0's slot is the only holder outside the arena; invalidate must
  // release it, not mark the shared block stale for an in-place refill.
  cache.invalidate(0);
  const Bitset gained = bits_with(64, {3});
  const SnapshotRef own = cache.shared(0, gained, 1);
  EXPECT_NE(own.id(), empty_id);  // a node that gains gets its own block
  EXPECT_TRUE(own.bits().test(3));
  const SnapshotRef other = cache.shared(1, none, 0);
  EXPECT_EQ(other.id(), empty_id);
  EXPECT_EQ(other.count(), 0u);
  EXPECT_FALSE(other.bits().test(3));
  EXPECT_EQ(cache.arena().captures(), 1u);
  EXPECT_EQ(cache.arena().allocated_blocks(), 2u);
}

TEST(SnapshotArena, ResetKeepsOrDropsTheEmptyBlockByWidth) {
  // Debug builds check reset's precondition (every block back in the
  // pool, the empty block held by the arena alone) with an assert.
  SnapshotCache cache(2, 64);
  const Bitset none(64);
  const void* const empty_id = cache.shared(0, none, 0).id();
  { const SnapshotRef gained = cache.shared(1, bits_with(64, {5}), 1); }
  cache.reset(2, 64);  // same width: slabs, pool and empty block kept
  EXPECT_EQ(cache.arena().allocated_blocks(), 2u);
  EXPECT_EQ(cache.arena().pooled_blocks(), 1u);
  EXPECT_EQ(cache.shared(0, none, 0).id(), empty_id);

  cache.reset(2, 128);  // new width: everything dropped
  EXPECT_EQ(cache.arena().allocated_blocks(), 0u);
  const Bitset wide(128);
  const SnapshotRef fresh_empty = cache.shared(0, wide, 0);
  EXPECT_EQ(fresh_empty.bits().size(), 128u);
  EXPECT_EQ(cache.arena().allocated_blocks(), 1u);
}

}  // namespace
}  // namespace latgossip
