// Parallel match execution suite (ctest label: parallel).
//
// Covers the offload worker pool end to end: MatchExecutor semantics
// (completion routing, work stealing, backpressure, per-worker Rng
// determinism), the ThreadCluster offload hook, the epoch-guarded
// SubscriptionStore, per-engine clone() snapshot isolation, and a
// differential test of an 8-worker matcher under subscription churn and
// split/merge storms against a brute-force oracle. Runs under TSan and
// ASan/UBSan via tools/tsan_check.sh and tools/sanitize_check.sh.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/thread_safety.h"
#include "index/subscription_index.h"
#include "index/subscription_store.h"
#include "net/cluster_table.h"
#include "net/tcp_transport.h"
#include "node/matcher_node.h"
#include "runtime/match_executor.h"
#include "runtime/thread_cluster.h"

namespace bluedove {
namespace {

bool eventually(const std::function<bool()>& pred, double seconds = 10.0) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

// ---------------------------------------------------------------------------
// MatchExecutor
// ---------------------------------------------------------------------------

/// Post hook that runs completions immediately on the calling worker and
/// counts them; the real hosts ship completions to a node task queue, but
/// the executor itself must not care.
struct InlinePost {
  std::atomic<int> posted{0};
  runtime::MatchExecutor::Post fn() {
    return [this](std::function<void()> f) {
      f();
      posted.fetch_add(1, std::memory_order_relaxed);
    };
  }
};

TEST(MatchExecutor, RunsJobsAndReportsUnits) {
  InlinePost post;
  runtime::MatchExecutorConfig cfg;
  cfg.workers = 4;
  cfg.lanes = 2;
  runtime::MatchExecutor exec(cfg, post.fn());
  ASSERT_EQ(exec.workers(), 4);

  std::atomic<double> units_sum{0.0};
  std::atomic<int> done{0};
  const int kJobs = 100;
  for (int i = 0; i < kJobs; ++i) {
    const bool ok = exec.submit(
        static_cast<std::size_t>(i % 2),
        [i](OffloadWorker&) { return static_cast<double>(i); },
        [&](double units) {
          double cur = units_sum.load();
          while (!units_sum.compare_exchange_weak(cur, cur + units)) {
          }
          done.fetch_add(1);
        });
    ASSERT_TRUE(ok);
  }
  ASSERT_TRUE(eventually([&] { return done.load() == kJobs; }));
  EXPECT_EQ(exec.completed(), static_cast<std::uint64_t>(kJobs));
  EXPECT_DOUBLE_EQ(units_sum.load(), kJobs * (kJobs - 1) / 2.0);
  exec.stop();
  // Idempotent, and submissions after stop are refused.
  exec.stop();
  EXPECT_FALSE(exec.submit(0, [](OffloadWorker&) { return 0.0; },
                           [](double) {}));
}

TEST(MatchExecutor, StealsFromHotLane) {
  InlinePost post;
  runtime::MatchExecutorConfig cfg;
  cfg.workers = 4;
  cfg.lanes = 4;
  runtime::MatchExecutor exec(cfg, post.fn());

  // Everything lands on lane 0; workers 1..3 have empty home lanes and can
  // only make progress by stealing. Each job naps so the backlog outlives
  // worker wakeup even on a single hardware core.
  std::atomic<int> done{0};
  const int kJobs = 64;
  for (int i = 0; i < kJobs; ++i) {
    ASSERT_TRUE(exec.submit(
        0,
        [](OffloadWorker&) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          return 1.0;
        },
        [&](double) { done.fetch_add(1); }));
  }
  ASSERT_TRUE(eventually([&] { return done.load() == kJobs; }));
  EXPECT_GT(exec.steals(), 0u);
  exec.stop();
}

TEST(MatchExecutor, RejectsWhenLaneFull) {
  InlinePost post;
  runtime::MatchExecutorConfig cfg;
  cfg.workers = 1;
  cfg.lanes = 1;
  cfg.lane_capacity = 2;
  runtime::MatchExecutor exec(cfg, post.fn());

  // Occupy the only worker behind a gate, then fill the lane.
  bd::Mutex mu;
  bd::CondVar cv;
  bool gate_open BD_GUARDED_BY(mu) = false;
  std::atomic<bool> gate_running{false};
  std::atomic<int> done{0};
  ASSERT_TRUE(exec.submit(
      0,
      [&](OffloadWorker&) {
        gate_running.store(true);
        bd::UniqueLock lock(mu);
        while (!gate_open) cv.wait(lock);
        return 0.0;
      },
      [&](double) { done.fetch_add(1); }));
  ASSERT_TRUE(eventually([&] { return gate_running.load(); }));

  auto noop = [&] {
    return exec.submit(0, [](OffloadWorker&) { return 0.0; },
                       [&](double) { done.fetch_add(1); });
  };
  EXPECT_TRUE(noop());
  EXPECT_TRUE(noop());
  EXPECT_FALSE(noop());  // lane at capacity: caller must run inline

  {
    bd::LockGuard lock(mu);
    gate_open = true;
  }
  cv.notify_all();
  ASSERT_TRUE(eventually([&] { return done.load() == 3; }));
  exec.stop();
}

TEST(MatchExecutor, PerWorkerRngStreamsAreSeedDeterministic) {
  InlinePost post;
  runtime::MatchExecutorConfig cfg;
  cfg.workers = 4;
  cfg.lanes = 4;
  cfg.seed = 12345;
  runtime::MatchExecutor exec(cfg, post.fn());

  // Each job draws once from its worker's stream. Which worker runs which
  // job is scheduling-dependent, but the sequence a given worker produces
  // must equal the Rng seeded with (seed + worker index).
  bd::Mutex mu;
  std::map<int, std::vector<std::uint64_t>> draws;  // guarded by mu
  std::atomic<int> done{0};
  const int kJobs = 200;
  for (int i = 0; i < kJobs; ++i) {
    ASSERT_TRUE(exec.submit(
        static_cast<std::size_t>(i % 4),
        [&](OffloadWorker& w) {
          const std::uint64_t draw = w.rng->next_u64();
          bd::LockGuard lock(mu);
          draws[w.index].push_back(draw);
          return 0.0;
        },
        [&](double) { done.fetch_add(1); }));
  }
  ASSERT_TRUE(eventually([&] { return done.load() == kJobs; }));
  exec.stop();

  ASSERT_FALSE(draws.empty());
  for (const auto& [index, seq] : draws) {
    ASSERT_GE(index, 0);
    ASSERT_LT(index, 4);
    Rng expected(cfg.seed + static_cast<std::uint64_t>(index));
    for (const std::uint64_t draw : seq) {
      EXPECT_EQ(draw, expected.next_u64()) << "worker " << index;
    }
  }
}

// ---------------------------------------------------------------------------
// ThreadCluster offload hook
// ---------------------------------------------------------------------------

/// Requests a pool in start() and offloads one computation per received
/// message, recording which threads the work and the completion ran on.
class OffloadProbeNode final : public Node {
 public:
  void start(NodeContext& ctx) override {
    node_thread_ = std::this_thread::get_id();
    pool_granted.store(ctx.enable_offload(2, 2));
    // Publish last: the test thread polls ctx() to know start() finished.
    ctx_.store(&ctx, std::memory_order_release);
  }
  void on_receive(NodeId /*from*/, Envelope /*env*/) override {
    ctx()->offload(
        0,
        [this](OffloadWorker& w) {
          work_on_node_thread.store(std::this_thread::get_id() ==
                                    node_thread_);
          worker_index.store(w.index);
          return 7.0;
        },
        [this](double units) {
          done_units.store(units);
          done_on_node_thread.store(std::this_thread::get_id() ==
                                    node_thread_);
          completions.fetch_add(1);
        });
  }

  NodeContext* ctx() const { return ctx_.load(std::memory_order_acquire); }

  std::atomic<NodeContext*> ctx_{nullptr};
  std::thread::id node_thread_;
  std::atomic<bool> pool_granted{false};
  std::atomic<bool> work_on_node_thread{true};
  std::atomic<bool> done_on_node_thread{false};
  std::atomic<int> worker_index{-2};
  std::atomic<double> done_units{0.0};
  std::atomic<int> completions{0};
};

TEST(ThreadClusterOffload, WorkRunsOffNodeThreadCompletionOnIt) {
  runtime::ThreadCluster cluster;
  auto node = std::make_unique<OffloadProbeNode>();
  OffloadProbeNode* probe = node.get();
  cluster.add_node(1, std::move(node));
  cluster.start(1);
  ASSERT_TRUE(eventually([&] { return probe->ctx() != nullptr; }));
  EXPECT_TRUE(probe->pool_granted.load());
  cluster.inject(1, Envelope::of(JoinRequest{}));
  ASSERT_TRUE(eventually([&] { return probe->completions.load() == 1; }));
  EXPECT_FALSE(probe->work_on_node_thread.load());
  EXPECT_TRUE(probe->done_on_node_thread.load());
  EXPECT_GE(probe->worker_index.load(), 0);
  EXPECT_LT(probe->worker_index.load(), 2);
  EXPECT_DOUBLE_EQ(probe->done_units.load(), 7.0);
  cluster.shutdown();
}

// ---------------------------------------------------------------------------
// Epoch-guarded SubscriptionStore
// ---------------------------------------------------------------------------

Subscription make_sub(SubscriptionId id, double lo = 0.0, double hi = 1.0) {
  Subscription sub;
  sub.id = id;
  sub.subscriber = id;
  sub.ranges = {Range{lo, hi}, Range{lo, hi}};
  return sub;
}

TEST(SubscriptionStoreEpochs, FastPathRecyclesImmediately) {
  SubscriptionStore store;
  const auto s1 = store.acquire(make_sub(1));
  const auto s2 = store.acquire(make_sub(2));
  EXPECT_TRUE(store.release(2));
  EXPECT_EQ(store.limbo(), 0u);  // no guards ever: legacy immediate recycle
  const auto s3 = store.acquire(make_sub(3));
  EXPECT_EQ(s3, s2);  // LIFO reuse, same as the pre-epoch store
  EXPECT_EQ(store.capacity(), 2u);
  EXPECT_EQ(store.at(s1).id, 1u);
}

TEST(SubscriptionStoreEpochs, GuardParksReleasesUntilDropped) {
  SubscriptionStore store;
  const auto s1 = store.acquire(make_sub(1, 10.0, 20.0));
  auto guard = store.epoch_guard();

  EXPECT_TRUE(store.release(1));
  EXPECT_EQ(store.limbo(), 1u);
  // The parked slot stays readable for snapshot holders.
  EXPECT_EQ(store.at(s1).id, 1u);
  EXPECT_DOUBLE_EQ(store.at(s1).ranges[0].lo, 10.0);

  // New acquisitions must not overwrite the parked slot while the guard
  // lives.
  const auto s2 = store.acquire(make_sub(2));
  EXPECT_NE(s2, s1);
  EXPECT_EQ(store.at(s1).id, 1u);

  guard.reset();
  // The next allocation collects the expired epoch and reuses the slot.
  const auto s3 = store.acquire(make_sub(3));
  EXPECT_EQ(s3, s1);
  EXPECT_EQ(store.limbo(), 0u);
}

TEST(SubscriptionStoreEpochs, SlotAddressesStableAcrossGrowth) {
  SubscriptionStore store;
  std::vector<const Subscription*> early;
  for (SubscriptionId id = 1; id <= 100; ++id) {
    early.push_back(&store.at(store.acquire(make_sub(id))));
  }
  // Growth far past several chunk boundaries (64, 192, 448, ...).
  for (SubscriptionId id = 101; id <= 5000; ++id) {
    store.acquire(make_sub(id));
  }
  for (SubscriptionId id = 1; id <= 100; ++id) {
    EXPECT_EQ(early[id - 1], &store.at(store.slot_of(id)));
    EXPECT_EQ(early[id - 1]->id, id);
  }
}

TEST(SubscriptionStoreEpochs, InterningRefcountsSharedSlots) {
  SubscriptionStore store;
  const auto a = store.acquire(make_sub(7));
  const auto b = store.acquire(make_sub(7));
  EXPECT_EQ(a, b);
  EXPECT_EQ(store.live(), 1u);
  EXPECT_TRUE(store.release(7));
  EXPECT_EQ(store.slot_of(7), a);  // one ref left
  EXPECT_TRUE(store.release(7));
  EXPECT_EQ(store.slot_of(7), SubscriptionStore::kNoSlot);
  EXPECT_FALSE(store.release(7));
}

// ---------------------------------------------------------------------------
// clone(): immutable read snapshots per engine
// ---------------------------------------------------------------------------

std::vector<SubscriptionId> hit_ids(const SubscriptionIndex& index,
                                    const Message& m) {
  std::vector<MatchHit> hits;
  WorkCounter wc;
  index.match_hits(m, hits, wc);
  std::vector<SubscriptionId> ids;
  ids.reserve(hits.size());
  for (const MatchHit& h : hits) ids.push_back(h.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

class SnapshotIsolation : public ::testing::TestWithParam<IndexKind> {};

TEST_P(SnapshotIsolation, CloneUnaffectedByLaterMutations) {
  const Range domain{0.0, 100.0};
  auto store = std::make_shared<SubscriptionStore>();
  auto index = make_index(GetParam(), 0, domain, store);

  Rng rng(99);
  for (SubscriptionId id = 1; id <= 200; ++id) {
    const double lo = rng.uniform(0.0, 80.0);
    Subscription sub;
    sub.id = id;
    sub.subscriber = id;
    sub.ranges = {Range{lo, lo + 15.0}, Range{0.0, 100.0}};
    index->insert(std::make_shared<const Subscription>(sub));
  }

  auto snapshot = index->clone();
  auto guard = store->epoch_guard();  // what the matcher pairs a clone with

  std::vector<Message> probes;
  for (int i = 0; i < 32; ++i) {
    Message m;
    m.id = static_cast<MessageId>(i + 1);
    m.values = {rng.uniform(0.0, 95.0), 50.0};
    probes.push_back(m);
  }
  std::vector<std::vector<SubscriptionId>> before;
  for (const Message& m : probes) before.push_back(hit_ids(*snapshot, m));

  // Mutate the original: erase the odd half, insert replacements.
  for (SubscriptionId id = 1; id <= 200; id += 2) index->erase(id);
  for (SubscriptionId id = 1000; id < 1100; ++id) {
    Subscription sub;
    sub.id = id;
    sub.subscriber = id;
    sub.ranges = {Range{0.0, 100.0}, Range{0.0, 100.0}};
    index->insert(std::make_shared<const Subscription>(sub));
  }

  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(hit_ids(*snapshot, probes[i]), before[i])
        << to_string(GetParam()) << " probe " << i;
  }
  // And the mutated original sees the new world: the inserted full-domain
  // subscriptions match every probe.
  for (const Message& m : probes) {
    const auto ids = hit_ids(*index, m);
    EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(),
                                   static_cast<SubscriptionId>(1000)));
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, SnapshotIsolation,
                         ::testing::Values(IndexKind::kLinearScan,
                                           IndexKind::kBucket,
                                           IndexKind::kIntervalTree,
                                           IndexKind::kFlatBucket),
                         [](const auto& info) {
                           switch (info.param) {
                             case IndexKind::kLinearScan: return std::string("LinearScan");
                             case IndexKind::kBucket: return std::string("Bucket");
                             case IndexKind::kIntervalTree: return std::string("IntervalTree");
                             case IndexKind::kFlatBucket: return std::string("FlatBucket");
                           }
                           return std::string("Unknown");
                         });

// ---------------------------------------------------------------------------
// 8-worker matcher vs brute-force oracle under churn + split/merge storms
// ---------------------------------------------------------------------------

/// Collects Delivery and MatchCompleted traffic from the matcher.
class SinkState {
 public:
  void record(const Envelope& env) {
    if (const auto* d = std::get_if<Delivery>(&env.payload)) {
      bd::LockGuard lock(mu_);
      delivered_[d->msg_id].insert(d->sub_id);
    } else if (std::holds_alternative<MatchCompleted>(env.payload)) {
      completed_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  int completed() const { return completed_.load(std::memory_order_relaxed); }
  std::set<SubscriptionId> delivered(MessageId id) {
    bd::LockGuard lock(mu_);
    return delivered_[id];
  }

 private:
  bd::Mutex mu_;
  std::map<MessageId, std::set<SubscriptionId>> delivered_ BD_GUARDED_BY(mu_);
  std::atomic<int> completed_{0};
};

TEST(ParallelMatcher, DifferentialUnderChurnAndSplitMerge) {
  constexpr NodeId kMatcher = 100;
  constexpr NodeId kNewcomer = 101;
  constexpr NodeId kSink = 7;
  constexpr std::size_t kDims = 4;
  const std::vector<Range> domains(kDims, Range{0.0, 80.0});

  runtime::ThreadCluster cluster;

  auto sink_state = std::make_shared<SinkState>();
  cluster.add_node(kSink, std::make_unique<FunctionNode>(
                              [sink_state](NodeId, const Envelope& env,
                                           Timestamp) {
                                sink_state->record(env);
                              }));
  // The split victim hands a segment to this node; it only needs to exist.
  cluster.add_node(kNewcomer,
                   std::make_unique<FunctionNode>(FunctionNode::Handler{}));

  MatcherConfig mcfg;
  mcfg.domains = domains;
  mcfg.cores = 8;
  mcfg.index_kind = IndexKind::kFlatBucket;
  mcfg.match_batch = 8;
  mcfg.metrics_sink = kSink;
  mcfg.delivery_sink = kSink;
  mcfg.load_report_interval = 10.0;
  mcfg.gossip.round_interval = 10.0;
  auto matcher = std::make_unique<MatcherNode>(kMatcher, mcfg);
  matcher->set_bootstrap(bootstrap_table({kMatcher}, domains));
  cluster.add_node(kMatcher, std::move(matcher));
  cluster.start_all();

  // Stable population: these subscriptions are never churned; the oracle is
  // computed over them. Their predicates live in [0, 80).
  Rng rng(2024);
  std::vector<Subscription> stable;
  const SubscriptionId kStableCount = 1200;
  for (SubscriptionId id = 1; id <= kStableCount; ++id) {
    Subscription sub;
    sub.id = id;
    sub.subscriber = id;
    sub.ranges.reserve(kDims);
    for (std::size_t d = 0; d < kDims; ++d) {
      const double lo = rng.uniform(0.0, 40.0);
      sub.ranges.push_back(Range{lo, lo + 40.0});
    }
    stable.push_back(sub);
    cluster.inject(kMatcher,
                   Envelope::of(StoreSubscription{
                       sub, static_cast<DimId>(id % kDims)}));
  }

  // Churn population: confined to [90, 100] — outside the message space, so
  // it never changes any oracle answer, but its store/remove storm runs
  // concurrently with the offloaded probes (snapshot refresh + epoch limbo
  // under fire).
  auto churn_sub = [](SubscriptionId id) {
    Subscription sub;
    sub.id = id;
    sub.subscriber = id;
    sub.ranges.assign(kDims, Range{90.0, 100.0});
    return sub;
  };

  // Interleave requests with churn. ThreadCluster inboxes are FIFO, so
  // every stable store above is applied before the first probe.
  const int kRequests = 800;
  std::vector<Message> probes;
  for (int i = 0; i < kRequests; ++i) {
    const SubscriptionId churn_id = 100000 + static_cast<SubscriptionId>(i);
    cluster.inject(kMatcher, Envelope::of(StoreSubscription{
                                 churn_sub(churn_id),
                                 static_cast<DimId>(i % kDims)}));
    Message m;
    m.id = static_cast<MessageId>(i + 1);
    m.values.reserve(kDims);
    for (std::size_t d = 0; d < kDims; ++d) {
      m.values.push_back(rng.uniform(0.0, 80.0));
    }
    probes.push_back(m);
    MatchRequest req;
    req.msg = m;
    req.dim = static_cast<DimId>(i % kDims);
    cluster.inject(kMatcher, Envelope::of(std::move(req)));
    if (i >= 50) {
      // Remove a churn subscription stored a while ago — by now probes are
      // in flight holding snapshots, so removals exercise the limbo path.
      cluster.inject(kMatcher,
                     Envelope::of(RemoveSubscription{
                         100000 + static_cast<SubscriptionId>(i - 50),
                         static_cast<DimId>((i - 50) % kDims)}));
    }
  }
  ASSERT_TRUE(eventually(
      [&] { return sink_state->completed() >= kRequests; }, 60.0))
      << "completed " << sink_state->completed() << "/" << kRequests;

  // Differential: delivered set == brute force over the stable population.
  for (int i = 0; i < kRequests; ++i) {
    const Message& m = probes[static_cast<std::size_t>(i)];
    std::set<SubscriptionId> expected;
    for (const Subscription& sub : stable) {
      if (static_cast<DimId>(sub.id % kDims) == static_cast<DimId>(i % kDims)
          && sub.matches(m)) {
        expected.insert(sub.id);
      }
    }
    EXPECT_EQ(sink_state->delivered(m.id), expected) << "msg " << m.id;
  }

  // Split/merge storm while a second request wave is in flight: the victim
  // walks and prunes its live dim-3 set (snapshots keep in-flight probes
  // safe), then absorbs a merge handover.
  cluster.inject(kMatcher, Envelope::of(SplitCommand{kNewcomer, 3}));
  HandoverMerge merge;
  merge.dim = 2;
  merge.merged_segment = Range{0.0, 80.0};
  for (SubscriptionId id = 200000; id < 200200; ++id) {
    merge.subs.push_back(churn_sub(id));
  }
  cluster.inject(kMatcher, Envelope::of(std::move(merge)));
  const int kWave2 = 200;
  for (int i = 0; i < kWave2; ++i) {
    MatchRequest req;
    req.msg.id = static_cast<MessageId>(10000 + i);
    req.msg.values.assign(kDims, rng.uniform(0.0, 80.0));
    req.dim = static_cast<DimId>(i % kDims);
    cluster.inject(kMatcher, Envelope::of(std::move(req)));
  }
  EXPECT_TRUE(eventually(
      [&] { return sink_state->completed() >= kRequests + kWave2; }, 60.0))
      << "completed " << sink_state->completed();

  cluster.shutdown();
}

// ---------------------------------------------------------------------------
// TcpHost: the wire substrate grants a pool too
// ---------------------------------------------------------------------------

class AckCountingNode final : public Node {
 public:
  void start(NodeContext& ctx) override {
    ctx_.store(&ctx, std::memory_order_release);
  }
  void on_receive(NodeId /*from*/, Envelope env) override {
    if (std::holds_alternative<MatchAck>(env.payload)) {
      acks_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  NodeContext* ctx() const { return ctx_.load(std::memory_order_acquire); }
  int acks() const { return acks_.load(std::memory_order_relaxed); }

 private:
  std::atomic<NodeContext*> ctx_{nullptr};
  std::atomic<int> acks_{0};
};

TEST(TcpParallelMatcher, ServicesBatchesThroughWorkerPool) {
  constexpr NodeId kMatcher = 1000;
  constexpr NodeId kClient = 2;
  constexpr std::size_t kDims = 4;
  const std::vector<Range> domains(kDims, Range{0.0, 100.0});

  MatcherConfig mcfg;
  mcfg.domains = domains;
  mcfg.cores = 8;
  mcfg.index_kind = IndexKind::kFlatBucket;
  mcfg.match_batch = 16;
  mcfg.deliver = false;
  mcfg.load_report_interval = 10.0;
  mcfg.gossip.round_interval = 10.0;
  auto matcher = std::make_unique<MatcherNode>(kMatcher, mcfg);
  matcher->set_bootstrap(bootstrap_table({kMatcher}, domains));
  net::TcpHost matcher_host(kMatcher, 0, std::move(matcher));

  net::TcpHost client_host(kClient, 0, std::make_unique<AckCountingNode>());
  auto* client = client_host.node_as<AckCountingNode>();
  matcher_host.add_peer(kClient, {"127.0.0.1", client_host.port()});
  client_host.add_peer(kMatcher, {"127.0.0.1", matcher_host.port()});
  matcher_host.start();
  client_host.start();
  ASSERT_TRUE(eventually([&] { return client->ctx() != nullptr; }));
  NodeContext* ctx = client->ctx();

  // Envelopes are built here and sent from one node-thread task; the wire
  // coalesces the task's sends into multi-envelope frames.
  std::vector<Envelope> envs;
  Rng rng(5);
  for (SubscriptionId id = 1; id <= 2000; ++id) {
    Subscription sub;
    sub.id = id;
    sub.subscriber = id;
    sub.ranges.reserve(kDims);
    for (std::size_t d = 0; d < kDims; ++d) {
      const double lo = rng.uniform(0.0, 90.0);
      sub.ranges.push_back(Range{lo, lo + 10.0});
    }
    envs.push_back(Envelope::of(StoreSubscription{
        std::move(sub), static_cast<DimId>(id % kDims)}));
  }
  const int kRequests = 2000;
  for (int i = 0; i < kRequests; ++i) {
    MatchRequest req;
    req.msg.id = static_cast<MessageId>(i + 1);
    req.msg.values.reserve(kDims);
    for (std::size_t d = 0; d < kDims; ++d) {
      req.msg.values.push_back(rng.uniform(0.0, 100.0));
    }
    req.dim = static_cast<DimId>(i % kDims);
    req.reply_to = kClient;
    envs.push_back(Envelope::of(std::move(req)));
  }
  client_host.post([ctx, envs = std::move(envs)]() mutable {
    for (Envelope& env : envs) ctx->send(kMatcher, std::move(env));
  });
  ASSERT_TRUE(eventually([&] { return client->acks() >= kRequests; }, 60.0))
      << "acks " << client->acks();

  // The pool actually ran the services: exec.* counters are merged into the
  // host's wire metrics.
  const obs::MetricsSnapshot snap = matcher_host.wire_metrics().snapshot();
  const auto jobs = snap.counters.find("exec.jobs");
  ASSERT_NE(jobs, snap.counters.end());
  EXPECT_GT(jobs->second, 0u);

  client_host.stop();
  matcher_host.stop();
}

}  // namespace
}  // namespace bluedove
