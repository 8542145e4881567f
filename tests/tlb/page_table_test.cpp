#include "tlb/page_table.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace uvmsim {
namespace {

TEST(PageTable, MapUnmapRoundTrip) {
  PageTable pt{128};
  EXPECT_FALSE(pt.resident(7));
  pt.map(7, 123);
  EXPECT_TRUE(pt.resident(7));
  EXPECT_EQ(pt.frame_of(7), 123u);
  EXPECT_EQ(pt.unmap(7), 123u);
  EXPECT_FALSE(pt.resident(7));
}

TEST(PageTable, FrameOfMissingIsInvalid) {
  PageTable pt{128};
  EXPECT_EQ(pt.frame_of(99), kInvalidFrame);
}

TEST(PageTable, CountsMappedPages) {
  PageTable pt{128};
  for (PageId p = 0; p < 10; ++p) pt.map(p, p);
  EXPECT_EQ(pt.mapped_pages(), 10u);
  pt.unmap(3);
  EXPECT_EQ(pt.mapped_pages(), 9u);
}

// The table is dense over [0, pages): the last page maps like any other,
// and lookups past the end read as unmapped without touching memory
// outside the table.
TEST(PageTable, LookupsAtAndPastTheSizedRange) {
  PageTable pt{16};
  EXPECT_EQ(pt.table_capacity(), 16u);
  pt.map(15, 3);
  EXPECT_TRUE(pt.resident(15));
  EXPECT_EQ(pt.frame_of(15), 3u);
  for (const PageId p : {PageId{16}, PageId{17}, PageId{1} << 40, kInvalidPage}) {
    EXPECT_FALSE(pt.resident(p)) << p;
    EXPECT_EQ(pt.frame_of(p), kInvalidFrame) << p;
  }
  EXPECT_THROW(pt.map(16, 4), std::out_of_range);
  EXPECT_EQ(pt.mapped_pages(), 1u);
}

TEST(PageTable, MappedPagesThroughPromoteAndDemote) {
  PageTable pt{2 * kLargePages};
  EXPECT_EQ(pt.table_capacity(), 2 * kLargePages);
  EXPECT_EQ(pt.load_factor(), 0.0);
  for (u32 i = 0; i < kLargePages; ++i) pt.map(i, i);
  EXPECT_EQ(pt.mapped_pages(), kLargePages);
  EXPECT_DOUBLE_EQ(pt.load_factor(), 0.5);

  // Promotion folds the 512 PTEs into one large leaf: nothing is unmapped.
  pt.promote(0, 0);
  EXPECT_EQ(pt.mapped_pages(), kLargePages);
  EXPECT_EQ(pt.large_mappings(), 1u);
  EXPECT_EQ(pt.load_factor(), 0.0);  // no per-page PTE left
  EXPECT_EQ(pt.frame_of(7), 7u);     // served by the large leaf
  EXPECT_TRUE(pt.resident(kLargePages - 1));
  EXPECT_FALSE(pt.resident(kLargePages));

  pt.demote(0);
  EXPECT_EQ(pt.large_mappings(), 0u);
  EXPECT_EQ(pt.mapped_pages(), kLargePages);
  EXPECT_EQ(pt.frame_of(7), 7u);

  EXPECT_EQ(pt.unmap(5), 5u);
  EXPECT_EQ(pt.mapped_pages(), kLargePages - 1);
  EXPECT_FALSE(pt.resident(5));
  pt.map(kLargePages, 900);
  EXPECT_EQ(pt.mapped_pages(), kLargePages);
  EXPECT_EQ(pt.table_capacity(), 2 * kLargePages);  // never grows
}

TEST(PageTable, NodeTagsShareUpperLevels) {
  // Pages in the same 512-page leaf region share the level-1..3 nodes but
  // have distinct level-0 (PTE-level) tags only when 512 pages apart.
  const PageId a = 0, b = 1, c = 512;
  EXPECT_EQ(PageTable::node_tag(a, 1), PageTable::node_tag(b, 1));
  EXPECT_EQ(PageTable::node_tag(a, 3), PageTable::node_tag(c, 3));
  EXPECT_NE(PageTable::node_tag(a, 1), PageTable::node_tag(c, 1));
}

TEST(PageTable, NodeTagsNeverAliasAcrossLevels) {
  // The level is encoded in the tag: the same VPN prefix at different levels
  // must produce different tags.
  for (PageId p : {PageId{0}, PageId{12345}, PageId{1} << 30}) {
    for (u32 l1 = 0; l1 < PageTable::kLevels; ++l1)
      for (u32 l2 = l1 + 1; l2 < PageTable::kLevels; ++l2)
        EXPECT_NE(PageTable::node_tag(p, l1), PageTable::node_tag(p, l2));
  }
}

}  // namespace
}  // namespace uvmsim
