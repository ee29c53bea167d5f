// Tests for the subscription matching engines. The core suite is
// parameterized over all three engines (TEST_P): every engine must agree
// with a brute-force oracle on randomized workloads and support dynamic
// insert/erase.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "attr/schema.h"
#include "common/rng.h"
#include "index/bucket_index.h"
#include "index/flat_bucket_index.h"
#include "index/interval_tree_index.h"
#include "index/linear_scan_index.h"
#include "index/subscription_index.h"
#include "index/subscription_store.h"
#include "workload/generators.h"

namespace bluedove {
namespace {

constexpr DimId kPivot = 1;
const Range kDomain{0, 1000};

SubPtr make_sub(SubscriptionId id, std::vector<Range> ranges) {
  Subscription s;
  s.id = id;
  s.subscriber = id;
  s.ranges = std::move(ranges);
  return std::make_shared<const Subscription>(std::move(s));
}

class IndexTest : public ::testing::TestWithParam<IndexKind> {
 protected:
  std::unique_ptr<SubscriptionIndex> make() {
    return make_index(GetParam(), kPivot, kDomain);
  }
};

TEST_P(IndexTest, EmptyIndexMatchesNothing) {
  auto index = make();
  EXPECT_EQ(index->size(), 0u);
  std::vector<SubPtr> out;
  WorkCounter wc;
  index->match(Message{1, {500, 500, 500}, ""}, out, wc);
  EXPECT_TRUE(out.empty());
}

TEST_P(IndexTest, InsertEraseSize) {
  auto index = make();
  index->insert(make_sub(1, {{0, 100}, {0, 100}, {0, 100}}));
  index->insert(make_sub(2, {{0, 100}, {200, 300}, {0, 100}}));
  EXPECT_EQ(index->size(), 2u);
  EXPECT_TRUE(index->erase(1));
  EXPECT_EQ(index->size(), 1u);
  EXPECT_FALSE(index->erase(1));  // double erase
  EXPECT_FALSE(index->erase(99));
  index->clear();
  EXPECT_EQ(index->size(), 0u);
}

TEST_P(IndexTest, MatchVerifiesAllDimensions) {
  auto index = make();
  // Pivot range contains 250 but dim0 will not contain 999.
  index->insert(make_sub(1, {{0, 100}, {200, 300}, {0, 1000}}));
  std::vector<SubPtr> out;
  WorkCounter wc;
  index->match(Message{1, {999, 250, 5}, ""}, out, wc);
  EXPECT_TRUE(out.empty());
  out.clear();
  index->match(Message{2, {50, 250, 5}, ""}, out, wc);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->id, 1u);
}

TEST_P(IndexTest, PivotBoundariesHalfOpen) {
  auto index = make();
  index->insert(make_sub(1, {{0, 1000}, {200, 300}, {0, 1000}}));
  std::vector<SubPtr> out;
  WorkCounter wc;
  index->match(Message{1, {1, 200, 1}, ""}, out, wc);
  EXPECT_EQ(out.size(), 1u);  // lo inclusive
  out.clear();
  index->match(Message{2, {1, 300, 1}, ""}, out, wc);
  EXPECT_TRUE(out.empty());  // hi exclusive
  out.clear();
  index->match(Message{3, {1, 199.999, 1}, ""}, out, wc);
  EXPECT_TRUE(out.empty());
}

TEST_P(IndexTest, OracleAgreementRandomWorkload) {
  auto index = make();
  const AttributeSchema schema = AttributeSchema::uniform(3, 1000.0);
  SubscriptionWorkload wl;
  wl.schema = schema;
  wl.predicate_width = 120.0;
  SubscriptionGenerator gen(wl, 77);
  std::vector<SubPtr> oracle;
  for (int i = 0; i < 600; ++i) {
    auto sub = std::make_shared<const Subscription>(gen.next());
    oracle.push_back(sub);
    index->insert(sub);
  }

  MessageWorkload mwl;
  mwl.schema = schema;
  MessageGenerator mgen(mwl, 78);
  for (int i = 0; i < 400; ++i) {
    const Message msg = mgen.next();
    std::vector<SubPtr> out;
    WorkCounter wc;
    index->match(msg, out, wc);
    std::set<SubscriptionId> got;
    for (const auto& s : out) got.insert(s->id);
    EXPECT_EQ(got.size(), out.size()) << "duplicate results";
    std::set<SubscriptionId> expect;
    for (const auto& s : oracle) {
      if (s->matches(msg)) expect.insert(s->id);
    }
    EXPECT_EQ(got, expect);
  }
}

TEST_P(IndexTest, OracleAgreementAfterErasures) {
  auto index = make();
  const AttributeSchema schema = AttributeSchema::uniform(3, 1000.0);
  SubscriptionWorkload wl;
  wl.schema = schema;
  SubscriptionGenerator gen(wl, 33);
  std::vector<SubPtr> oracle;
  for (int i = 0; i < 400; ++i) {
    auto sub = std::make_shared<const Subscription>(gen.next());
    oracle.push_back(sub);
    index->insert(sub);
  }
  // Erase every third subscription.
  std::vector<SubPtr> remaining;
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    if (i % 3 == 0) {
      EXPECT_TRUE(index->erase(oracle[i]->id));
    } else {
      remaining.push_back(oracle[i]);
    }
  }
  EXPECT_EQ(index->size(), remaining.size());

  MessageWorkload mwl;
  mwl.schema = schema;
  MessageGenerator mgen(mwl, 34);
  for (int i = 0; i < 200; ++i) {
    const Message msg = mgen.next();
    std::vector<SubPtr> out;
    WorkCounter wc;
    index->match(msg, out, wc);
    std::set<SubscriptionId> got;
    for (const auto& s : out) got.insert(s->id);
    std::set<SubscriptionId> expect;
    for (const auto& s : remaining) {
      if (s->matches(msg)) expect.insert(s->id);
    }
    EXPECT_EQ(got, expect);
  }
}

TEST_P(IndexTest, WorkCounterAdvances) {
  auto index = make();
  for (int i = 0; i < 100; ++i) {
    const double lo = (i % 10) * 100.0;
    index->insert(make_sub(i + 1, {{0, 1000}, {lo, lo + 100}, {0, 1000}}));
  }
  WorkCounter wc;
  std::vector<SubPtr> out;
  index->match(Message{1, {5, 555, 5}, ""}, out, wc);
  EXPECT_GT(wc.total(), 0.0);
}

TEST_P(IndexTest, MatchCostIsPositiveAndBoundedBySetForScan) {
  auto index = make();
  for (int i = 0; i < 50; ++i) {
    index->insert(make_sub(i + 1, {{0, 1000}, {0, 1000}, {0, 1000}}));
  }
  const Message msg{1, {5, 500, 5}, ""};
  EXPECT_GT(index->match_cost(msg), 0.0);
}

TEST_P(IndexTest, ForEachVisitsEverySubscription) {
  auto index = make();
  std::set<SubscriptionId> inserted;
  for (int i = 1; i <= 64; ++i) {
    index->insert(make_sub(i, {{0, 10}, {i * 10.0, i * 10.0 + 5}, {0, 10}}));
    inserted.insert(i);
  }
  std::set<SubscriptionId> seen;
  index->for_each([&](const SubPtr& s) { seen.insert(s->id); });
  EXPECT_EQ(seen, inserted);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, IndexTest,
                         ::testing::Values(IndexKind::kLinearScan,
                                           IndexKind::kBucket,
                                           IndexKind::kIntervalTree,
                                           IndexKind::kFlatBucket),
                         [](const auto& info) {
                           switch (info.param) {
                             case IndexKind::kLinearScan:
                               return "LinearScan";
                             case IndexKind::kBucket:
                               return "Bucket";
                             case IndexKind::kFlatBucket:
                               return "FlatBucket";
                             default:
                               return "IntervalTree";
                           }
                         });

TEST_P(IndexTest, MatchHitsAgreesWithMatch) {
  auto index = make();
  const AttributeSchema schema = AttributeSchema::uniform(3, 1000.0);
  SubscriptionWorkload wl;
  wl.schema = schema;
  SubscriptionGenerator gen(wl, 11);
  for (int i = 0; i < 300; ++i) {
    index->insert(std::make_shared<const Subscription>(gen.next()));
  }
  MessageWorkload mwl;
  mwl.schema = schema;
  MessageGenerator mgen(mwl, 12);
  for (int i = 0; i < 100; ++i) {
    const Message msg = mgen.next();
    std::vector<SubPtr> subs;
    std::vector<MatchHit> hits;
    WorkCounter wc_subs, wc_hits;
    index->match(msg, subs, wc_subs);
    index->match_hits(msg, hits, wc_hits);
    std::set<SubscriptionId> a, b;
    for (const auto& s : subs) a.insert(s->id);
    for (const auto& h : hits) b.insert(h.id);
    EXPECT_EQ(a, b);
    EXPECT_DOUBLE_EQ(wc_subs.total(), wc_hits.total());
    for (const auto& h : hits) EXPECT_EQ(h.id, h.subscriber);  // gen default
  }
}

TEST_P(IndexTest, MatchBatchOffsetsPartitionHits) {
  auto index = make();
  const AttributeSchema schema = AttributeSchema::uniform(3, 1000.0);
  SubscriptionWorkload wl;
  wl.schema = schema;
  SubscriptionGenerator gen(wl, 21);
  for (int i = 0; i < 400; ++i) {
    index->insert(std::make_shared<const Subscription>(gen.next()));
  }
  MessageWorkload mwl;
  mwl.schema = schema;
  MessageGenerator mgen(mwl, 22);
  std::vector<Message> batch;
  for (int i = 0; i < 32; ++i) batch.push_back(mgen.next());

  std::vector<MatchHit> hits;
  std::vector<std::uint32_t> offsets;
  WorkCounter wc;
  index->match_batch(batch, hits, offsets, wc);
  ASSERT_EQ(offsets.size(), batch.size() + 1);
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_EQ(offsets.back(), hits.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_LE(offsets[i], offsets[i + 1]);
    std::set<SubscriptionId> got;
    for (std::uint32_t h = offsets[i]; h < offsets[i + 1]; ++h) {
      got.insert(hits[h].id);
    }
    std::vector<MatchHit> single;
    WorkCounter wc1;
    index->match_hits(batch[i], single, wc1);
    std::set<SubscriptionId> expect;
    for (const auto& h : single) expect.insert(h.id);
    EXPECT_EQ(got, expect) << "message " << i;
  }
}

// ---------------------------------------------------------------------------
// Differential property test: all four engines agree under churn
// ---------------------------------------------------------------------------

TEST(IndexDifferential, AllEnginesAgreeUnderChurn) {
  const Range domain{0, 1000};
  constexpr DimId pivot = 1;
  const std::vector<IndexKind> kinds = {
      IndexKind::kLinearScan, IndexKind::kBucket, IndexKind::kIntervalTree,
      IndexKind::kFlatBucket};
  std::vector<std::unique_ptr<SubscriptionIndex>> engines;
  for (IndexKind kind : kinds) engines.push_back(make_index(kind, pivot, domain));

  const AttributeSchema schema = AttributeSchema::uniform(3, 1000.0);
  SubscriptionWorkload wl;
  wl.schema = schema;
  wl.predicate_width = 150.0;
  SubscriptionGenerator gen(wl, 1234);
  MessageWorkload mwl;
  mwl.schema = schema;
  MessageGenerator mgen(mwl, 5678);
  Rng rng(99);

  std::vector<SubPtr> live;
  const auto check_round = [&](int round) {
    for (int q = 0; q < 25; ++q) {
      const Message msg = mgen.next();
      std::set<SubscriptionId> reference;
      bool have_reference = false;
      for (std::size_t e = 0; e < engines.size(); ++e) {
        std::vector<MatchHit> hits;
        WorkCounter wc;
        engines[e]->match_hits(msg, hits, wc);
        std::set<SubscriptionId> got;
        for (const auto& h : hits) got.insert(h.id);
        EXPECT_EQ(got.size(), hits.size())
            << to_string(kinds[e]) << " returned duplicates, round " << round;
        if (!have_reference) {
          reference = std::move(got);
          have_reference = true;
        } else {
          EXPECT_EQ(got, reference)
              << to_string(kinds[e]) << " diverged on round " << round;
        }
      }
    }
  };

  for (int round = 0; round < 8; ++round) {
    // Insert a batch into every engine.
    for (int i = 0; i < 120; ++i) {
      auto sub = std::make_shared<const Subscription>(gen.next());
      live.push_back(sub);
      for (auto& engine : engines) engine->insert(sub);
    }
    // Erase a random third of the live population from every engine.
    std::vector<SubPtr> survivors;
    for (const SubPtr& sub : live) {
      if (rng.next_below(3) == 0) {
        for (auto& engine : engines) {
          EXPECT_TRUE(engine->erase(sub->id)) << "round " << round;
        }
      } else {
        survivors.push_back(sub);
      }
    }
    live = std::move(survivors);
    for (auto& engine : engines) {
      EXPECT_EQ(engine->size(), live.size()) << "round " << round;
    }
    check_round(round);
  }
}

// ---------------------------------------------------------------------------
// Engine-specific behaviour
// ---------------------------------------------------------------------------

TEST(LinearScanIndex, MatchCostEqualsSetSize) {
  LinearScanIndex index(0);
  for (int i = 1; i <= 30; ++i) {
    index.insert(make_sub(i, {{0, 10}, {0, 10}}));
  }
  EXPECT_DOUBLE_EQ(index.match_cost(Message{1, {5, 5}, ""}), 30.0);
}

TEST(BucketIndex, ColdBucketIsCheap) {
  BucketIndex index(0, Range{0, 1000}, 10);
  // 50 subs piled on [0, 100) and one wide sub covering everything.
  for (int i = 1; i <= 50; ++i) {
    index.insert(make_sub(i, {{0, 100}, {0, 1000}}));
  }
  index.insert(make_sub(99, {{0, 1000}, {0, 1000}}));
  const double hot = index.match_cost(Message{1, {50, 5}, ""});
  const double cold = index.match_cost(Message{1, {950, 5}, ""});
  EXPECT_GT(hot, 40.0);
  EXPECT_LT(cold, 5.0);
}

TEST(BucketIndex, RangeSpanningManyBucketsFoundEverywhere) {
  BucketIndex index(0, Range{0, 1000}, 16);
  index.insert(make_sub(1, {{100, 900}, {0, 1000}}));
  std::vector<SubPtr> out;
  WorkCounter wc;
  for (double v : {100.0, 450.0, 899.9}) {
    out.clear();
    index.match(Message{1, {v, 5}, ""}, out, wc);
    EXPECT_EQ(out.size(), 1u) << "at v=" << v;
  }
  out.clear();
  index.match(Message{1, {950.0, 5}, ""}, out, wc);
  EXPECT_TRUE(out.empty());
}

TEST(IntervalTreeIndex, StabCountMatchesOracle) {
  IntervalTreeIndex index(0, Range{0, 1000});
  Rng rng(5);
  std::vector<Range> ranges;
  for (int i = 1; i <= 300; ++i) {
    const double lo = rng.uniform(0, 950);
    const Range r{lo, lo + rng.uniform(1, 50)};
    ranges.push_back(r);
    index.insert(make_sub(i, {r, {0, 1000}}));
  }
  for (double v : {0.0, 123.0, 500.0, 777.7, 999.0}) {
    std::size_t expect = 0;
    for (const Range& r : ranges) {
      if (r.contains(v)) ++expect;
    }
    EXPECT_EQ(index.stab_count(v), expect) << "at v=" << v;
  }
}

TEST(IntervalTreeIndex, DeepInsertAtMaxDepth) {
  IntervalTreeIndex index(0, Range{0, 1000}, /*max_depth=*/4);
  // Tiny intervals that would need depth > 4 land at depth-4 leaves.
  for (int i = 1; i <= 100; ++i) {
    const double lo = i * 9.5;
    index.insert(make_sub(i, {{lo, lo + 0.001}, {0, 1000}}));
  }
  EXPECT_EQ(index.size(), 100u);
  std::vector<SubPtr> out;
  WorkCounter wc;
  index.match(Message{1, {9.5 * 42 + 0.0005, 5}, ""}, out, wc);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->id, 42u);
}

TEST(IndexFactory, NamesAndKinds) {
  EXPECT_STREQ(to_string(IndexKind::kLinearScan), "linear-scan");
  EXPECT_STREQ(to_string(IndexKind::kBucket), "bucket");
  EXPECT_STREQ(to_string(IndexKind::kIntervalTree), "interval-tree");
  EXPECT_STREQ(to_string(IndexKind::kFlatBucket), "flat-bucket");
  EXPECT_NE(make_index(IndexKind::kBucket, 0, Range{0, 1}), nullptr);
  EXPECT_NE(make_index(IndexKind::kFlatBucket, 0, Range{0, 1}), nullptr);
}

TEST(IndexFactory, NamesParseBackAndUnknownNamesDoNot) {
  for (const IndexKind kind :
       {IndexKind::kLinearScan, IndexKind::kBucket, IndexKind::kIntervalTree,
        IndexKind::kFlatBucket}) {
    EXPECT_EQ(index_kind_from_string(to_string(kind)), kind)
        << to_string(kind);
  }
  EXPECT_EQ(index_kind_from_string("flat_bucket"), std::nullopt);
  EXPECT_EQ(index_kind_from_string(""), std::nullopt);
}

TEST(FlatBucketIndex, SharedArenaStoresEachSubscriptionOnce) {
  // Two dimension indexes sharing one arena: the same subscription
  // registered in both occupies a single slot, and survives until the last
  // index releases it.
  auto store = std::make_shared<SubscriptionStore>();
  FlatBucketIndex dim0(0, Range{0, 1000}, store);
  FlatBucketIndex dim1(1, Range{0, 1000}, store);

  const SubPtr sub = make_sub(7, {{100, 200}, {300, 400}, {0, 1000}});
  dim0.insert(sub);
  dim1.insert(sub);
  EXPECT_EQ(store->live(), 1u);  // one arena copy, refcounted

  const Message msg{1, {150, 350, 5}, ""};
  std::vector<MatchHit> hits;
  WorkCounter wc;
  dim0.match_hits(msg, hits, wc);
  dim1.match_hits(msg, hits, wc);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].id, 7u);
  EXPECT_EQ(hits[1].id, 7u);

  EXPECT_TRUE(dim0.erase(7));
  EXPECT_EQ(store->live(), 1u);  // dim1 still holds it
  hits.clear();
  dim1.match_hits(msg, hits, wc);
  EXPECT_EQ(hits.size(), 1u);
  EXPECT_TRUE(dim1.erase(7));
  EXPECT_EQ(store->live(), 0u);
}

TEST(FlatBucketIndex, SlotsAreRecycledAfterChurn) {
  FlatBucketIndex index(0, Range{0, 1000});
  for (int round = 0; round < 10; ++round) {
    for (int i = 1; i <= 100; ++i) {
      const double lo = (i % 10) * 100.0;
      index.insert(make_sub(i, {{lo, lo + 50}, {0, 1000}}));
    }
    for (int i = 1; i <= 100; ++i) EXPECT_TRUE(index.erase(i));
  }
  EXPECT_EQ(index.size(), 0u);
  // The arena recycled freed slots instead of growing per round.
  EXPECT_LE(index.store().capacity(), 100u);
}

TEST(FlatBucketIndex, ChurnKeepsCapacityBoundedAndResultsCorrect) {
  // Regression test for the swap-remove capacity thrash: columns grow in
  // lockstep with insertions (doubling, never per-element), erase never
  // reallocates, and compact_storage() is the only thing that releases
  // memory. Throughout heavy interleaved churn the engine must keep
  // agreeing with a LinearScanIndex oracle.
  const Range domain{0, 1000};
  constexpr DimId pivot = 0;
  FlatBucketIndex flat(pivot, domain);
  LinearScanIndex oracle(pivot);

  const AttributeSchema schema = AttributeSchema::uniform(3, 1000.0);
  SubscriptionWorkload wl;
  wl.schema = schema;
  wl.predicate_width = 140.0;
  SubscriptionGenerator gen(wl, 4242);
  MessageWorkload mwl;
  mwl.schema = schema;
  MessageGenerator mgen(mwl, 2121);
  Rng rng(7);

  std::vector<SubPtr> live;
  std::size_t peak_capacity = 0;
  for (int round = 0; round < 12; ++round) {
    for (int i = 0; i < 200; ++i) {
      auto sub = std::make_shared<const Subscription>(gen.next());
      live.push_back(sub);
      flat.insert(sub);
      oracle.insert(sub);
    }
    peak_capacity = std::max(peak_capacity, flat.column_capacity_bytes());
    // Erase roughly half, probing in between so stale columns would show.
    std::vector<SubPtr> survivors;
    for (const SubPtr& sub : live) {
      if (rng.next_below(2) == 0) {
        EXPECT_TRUE(flat.erase(sub->id));
        EXPECT_TRUE(oracle.erase(sub->id));
      } else {
        survivors.push_back(sub);
      }
    }
    live = std::move(survivors);
    for (int q = 0; q < 20; ++q) {
      const Message msg = mgen.next();
      std::vector<MatchHit> got_hits, want_hits;
      WorkCounter wc;
      flat.match_hits(msg, got_hits, wc);
      oracle.match_hits(msg, want_hits, wc);
      std::set<SubscriptionId> got, want;
      for (const auto& h : got_hits) got.insert(h.id);
      for (const auto& h : want_hits) want.insert(h.id);
      EXPECT_EQ(got, want) << "round " << round;
    }
    // Capacity never shrinks on erase (no thrash), so it is monotone within
    // the run until compact_storage() is invoked below.
    EXPECT_GE(flat.column_capacity_bytes(), peak_capacity) << "round " << round;
    peak_capacity = flat.column_capacity_bytes();
  }

  // Quiesce: drain almost everything, then compact. Capacity must drop.
  for (const SubPtr& sub : live) EXPECT_TRUE(flat.erase(sub->id));
  const std::size_t before = flat.column_capacity_bytes();
  flat.compact_storage();
  const std::size_t after = flat.column_capacity_bytes();
  EXPECT_LT(after, before) << "compact_storage released nothing";
  EXPECT_EQ(flat.size(), 0u);
}

TEST(FlatBucketIndex, ColdBucketIsCheap) {
  FlatBucketIndex index(0, Range{0, 1000}, nullptr, 10);
  for (int i = 1; i <= 50; ++i) {
    index.insert(make_sub(i, {{0, 100}, {0, 1000}}));
  }
  index.insert(make_sub(99, {{0, 1000}, {0, 1000}}));
  const double hot = index.match_cost(Message{1, {50, 5}, ""});
  const double cold = index.match_cost(Message{1, {950, 5}, ""});
  EXPECT_GT(hot, 40.0);
  EXPECT_LT(cold, 5.0);
}

}  // namespace
}  // namespace bluedove
