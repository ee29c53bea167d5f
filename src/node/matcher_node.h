#pragma once
// MatcherNode: a back-end matching server (paper §II-B, §III).
//
// A matcher stores the subscriptions assigned to it along each dimension in
// k separate sets, each with its own index, plus the globally replicated
// "wide" set. Incoming MatchRequests are queued per dimension (the paper's
// separate queues, SEDA-style) and serviced by a fixed number of cores.
// The matcher participates in the gossip overlay, reports per-dimension
// load to all dispatchers, and implements the elasticity protocol (segment
// split on join, merge on leave).

#include <deque>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/affinity.h"
#include "common/types.h"
#include "core/partition_strategy.h"
#include "cover/cover_table.h"
#include "gossip/gossiper.h"
#include "index/subscription_index.h"
#include "net/transport.h"
#include "obs/metrics.h"

namespace bluedove {

struct MatcherConfig {
  /// Schema: number of dimensions and their domains (for index layout).
  std::vector<Range> domains;

  int cores = 4;  ///< paper testbed: 4-core VMs

  IndexKind index_kind = IndexKind::kLinearScan;

  /// Maximum MatchRequests one core drains from a dimension queue per
  /// service: the batch goes through SubscriptionIndex::match_batch in one
  /// call, amortizing probe setup and scratch allocation. 1 reproduces
  /// strict per-message service. MatchCompleted.work_units is exact per
  /// request either way (each request's own probe counters, not the batch
  /// average).
  int match_batch = 1;

  /// kFull computes and delivers real match sets; kCostOnly skips the match
  /// computation and charges only the modelled work, which makes saturation
  /// probes orders of magnitude faster to simulate. Response-time metrics
  /// are identical; only Delivery fan-out is suppressed.
  enum class MatchMode { kFull, kCostOnly };
  MatchMode match_mode = MatchMode::kFull;

  double load_report_interval = 1.0;  ///< paper: 64B push every second...
  double load_change_threshold = 0.10;  ///< ...if load changed more than 10%

  /// Where a segment is cut when a joiner takes over half of it. The paper
  /// splits at the midpoint ("splits half of the segment"); kMedian cuts at
  /// the median of the stored predicate centres instead, which halves the
  /// subscription *load* rather than the value range (ablation in
  /// DESIGN.md).
  enum class SplitPolicy { kMidpoint, kMedian };
  SplitPolicy split_policy = SplitPolicy::kMidpoint;

  GossipConfig gossip;

  std::vector<NodeId> dispatchers;      ///< load-report / join targets
  NodeId metrics_sink = kInvalidNode;   ///< MatchCompleted destination
  /// Where Delivery messages go: the "temporary storage" of §II-B's
  /// indirect delivery model (a queue node subscribers poll / a proxy that
  /// pushes to connected subscribers).
  NodeId delivery_sink = kInvalidNode;
  bool deliver = true;                  ///< send Delivery messages (kFull)

  /// Fixed per-message overhead in work units (parse, queue, hand-off).
  double base_match_work = 25.0;

  /// Subscription covering (src/cover): when enabled, each dimension set
  /// aggregates near-duplicate cuboids and indexes only covering
  /// representatives; delivery expands representatives back into exact
  /// member lists. The wide set is never covered (it is tiny and fully
  /// replicated).
  CoverConfig cover;
};

class MatcherNode final : public Node {
 public:
  MatcherNode(NodeId id, MatcherConfig config);

  /// Pre-loads the initial cluster table (omit for a joining matcher, which
  /// will instead send a JoinRequest to a dispatcher on start).
  void set_bootstrap(ClusterTable table);

  void start(NodeContext& ctx) override;
  void on_receive(NodeId from, Envelope env) override;

  // --- introspection (tests, harness) --------------------------------------
  NodeId id() const { return id_; }
  const Gossiper& gossiper() const { return gossiper_; }
  std::size_t set_size(DimId dim) const;
  /// Raw subscriptions registered on `dim` (== set_size when covering is
  /// off; >= set_size when the cover table compressed the set).
  std::size_t raw_set_size(DimId dim) const;
  const CoverTable* cover_table(DimId dim) const;
  std::size_t wide_set_size() const { return wide_ids_.size(); }
  std::size_t queue_length(DimId dim) const;
  std::size_t total_queued() const;
  /// Total distinct (dim, id) copies stored.
  std::size_t stored_copies() const;
  std::uint64_t matched_total() const { return matched_total_; }
  Range segment(DimId dim) const;
  /// Node-local observability registry (counters, queue gauges, stage
  /// latency histograms). Snapshot-safe from any thread.
  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  struct DimSet {
    std::unique_ptr<SubscriptionIndex> index;
    std::unordered_set<SubscriptionId> ids;  ///< dedup guard
    std::deque<MatchRequest> queue;
    // Window counters for the load report (lambda / mu of the past w secs).
    std::uint64_t arrived_in_window = 0;
    std::uint64_t matched_in_window = 0;
    /// EWMA of observed per-message service durations (capability signal
    /// behind the paper's "matching rate"); 0 until the first service.
    double ewma_service_time = 0.0;
    // Last pushed values, for the >10% change suppression.
    DimLoad last_pushed;
    bool ever_pushed = false;
    // Per-dimension stage-queue instrumentation (cached registry pointers).
    obs::Gauge* queue_depth = nullptr;
    obs::Gauge* queue_high_water = nullptr;
    // Per-segment load attribution (obs/segment_load.h): cached segload.*
    // instruments. Requests, probe work, queue residency and delivery
    // fan-out are charged to the segment that served them.
    obs::Counter* segload_requests = nullptr;
    obs::Counter* segload_deliveries = nullptr;
    obs::Gauge* segload_work = nullptr;
    obs::Gauge* segload_queue_seconds = nullptr;
    obs::Gauge* segload_service_seconds = nullptr;
    obs::Gauge* segload_subs = nullptr;
    obs::Gauge* segload_lo = nullptr;
    obs::Gauge* segload_hi = nullptr;
    /// Work-units absorbed this report window (feeds DimLoad::work_rate).
    double work_in_window = 0.0;
    /// Copy-on-write read snapshot for offloaded matching: refreshed from
    /// `index` at dispatch time when mutations landed since the last
    /// service (`dirty`). `snapshot_guard` pins the arena epoch so
    /// slot-backed engines keep released slots readable until every job
    /// holding the snapshot has completed.
    bool dirty = true;
    std::shared_ptr<const SubscriptionIndex> snapshot;
    std::shared_ptr<const void> snapshot_guard;
    /// Covering layer (config.cover.enabled): raw subscriptions register
    /// here; the index above holds only representatives + pass-throughs.
    /// Node-thread-only, like every other mutation of this struct.
    std::unique_ptr<CoverTable> cover;
  };

  /// Shared state for one in-flight service: built on the node thread,
  /// filled by the (possibly offloaded) match computation, consumed by
  /// complete_batch back on the node thread.
  struct ServiceJob {
    std::vector<MatchRequest> reqs;
    Timestamp service_start = 0.0;
    // Hits for reqs[i] are hits[offsets[i] .. offsets[i+1]) (dimension set)
    // plus wide_hits[wide_offsets[i] .. wide_offsets[i+1]) (wide set).
    std::vector<MatchHit> hits, wide_hits;
    std::vector<std::uint32_t> offsets, wide_offsets;
    /// Exact work units attributable to reqs[i] (base cost plus its own
    /// probe counters), independent of how the batch was packed.
    std::vector<double> per_req_work;
    /// Cover-table mutation stamp at probe time; the kCover differential
    /// audit only replays when the table is still at this stamp at
    /// completion (i.e. the probed view and the live members agree).
    std::uint64_t cover_stamp = 0;
  };

  std::size_t dims() const { return sets_.size(); }

  /// Split boundary for handle_split, per the configured SplitPolicy.
  Value split_boundary(DimId dim, const Range& segment) const;

  BD_NODE_THREAD void handle_store(const StoreSubscription& msg);
  BD_NODE_THREAD void handle_remove(const RemoveSubscription& msg);
  /// Counts, stamps and queues one request on its dimension queue, then
  /// pumps. A frame of requests arrives envelope by envelope: the first
  /// starts a core, and the rest queue behind it while the cores are busy,
  /// where `match_batch` drains them together.
  BD_NODE_THREAD void handle_match_request(MatchRequest msg);
  BD_NODE_THREAD void handle_split(NodeId from, const SplitCommand& msg);
  BD_NODE_THREAD void handle_handover_segment(const HandoverSegment& msg);
  BD_NODE_THREAD void handle_leave();
  BD_NODE_THREAD void handle_handover_merge(const HandoverMerge& msg);
  BD_NODE_THREAD void handle_table_pull(NodeId from);
  BD_NODE_THREAD void handle_table_resp(const TablePullResp& msg);
  BD_NODE_THREAD void handle_stats(NodeId from);
  BD_NODE_THREAD void handle_trace_dump(NodeId from);

  /// Starts servicing queued requests while cores are free.
  void pump();
  /// Services up to config_.match_batch requests from one dimension queue
  /// on a single core, draining them through the index's batched probe.
  /// The probe itself is dispatched through NodeContext::offload — onto a
  /// real worker thread when the substrate granted a pool, inline (then
  /// charged) otherwise.
  void service_batch(std::vector<MatchRequest> reqs);
  /// Refreshes the dimension + wide snapshots if mutations landed since
  /// the last offloaded service.
  void refresh_snapshots(DimSet& set);
  /// Second half of service_batch, back on the node thread: EWMA update,
  /// Delivery fan-out, acks, core release.
  void complete_batch(ServiceJob& job);
  void finish(const MatchRequest& req, std::uint32_t match_count,
              double work_units);

  void report_load();
  /// Refreshes the slow-moving segload.* gauges (segment bounds, set
  /// sizes) so scrapes and load reports see current values.
  void refresh_segload_gauges();
  DimLoad snapshot_dim(const DimSet& set) const;
  static bool changed_enough(const DimLoad& a, const DimLoad& b,
                             double threshold);

  void store_one(const Subscription& sub, DimId dim);
  bool remove_one(SubscriptionId id, DimId dim);
  /// Visits every raw subscription stored on `dim`: cover-table members
  /// when covering is on (so split/merge hand over raw subscriptions and
  /// cover sets re-partition cleanly), index entries otherwise.
  void for_each_stored(DimId dim,
                       const std::function<void(const Subscription&)>& fn)
      const;

  NodeId id_;
  MatcherConfig config_;
  NodeContext* ctx_ = nullptr;
  // Declared before sets_ so the cached instrument pointers in DimSet never
  // outlive the registry they point into.
  obs::MetricsRegistry metrics_;
  obs::Counter* m_requests_ = nullptr;    ///< MatchRequests accepted
  obs::Counter* m_matched_ = nullptr;     ///< messages fully serviced
  obs::Counter* m_deliveries_ = nullptr;  ///< Delivery envelopes sent
  obs::Counter* m_stats_reqs_ = nullptr;  ///< StatsRequest scrapes answered
  obs::LatencyHistogram* m_queue_lat_ = nullptr;  ///< enqueue -> match start
  obs::LatencyHistogram* m_match_lat_ = nullptr;  ///< match start -> end
  // cover.* instruments; registered (and non-null) only when covering is
  // enabled so uncovered snapshots stay byte-identical to before.
  obs::Counter* cov_expansions_ = nullptr;     ///< representative hits expanded
  obs::Counter* cov_expanded_ = nullptr;       ///< member deliveries produced
  obs::Counter* cov_residual_checks_ = nullptr;
  obs::Counter* cov_residual_rejects_ = nullptr;
  obs::Counter* cov_absorbed_ = nullptr;       ///< adds contained in a box
  obs::Counter* cov_widened_ = nullptr;        ///< adds that widened a box
  obs::Gauge* cov_raw_ = nullptr;
  obs::Gauge* cov_reps_ = nullptr;
  obs::Gauge* cov_ratio_ = nullptr;            ///< raw / indexed entries
  Gossiper gossiper_;
  bool has_bootstrap_ = false;
  ClusterTable bootstrap_;

  std::vector<DimSet> sets_;
  std::unique_ptr<SubscriptionIndex> wide_;  ///< always-searched wide set
  std::unordered_set<SubscriptionId> wide_ids_;
  /// Arena shared by slot-backed dimension indexes (kFlatBucket only);
  /// epoch-guarded so offloaded snapshots read released slots safely.
  std::shared_ptr<SubscriptionStore> store_;
  /// True when the substrate granted a real worker pool (enable_offload);
  /// services then probe immutable snapshots instead of the live indexes.
  bool parallel_ = false;
  /// Per-worker probe scratch, indexed by OffloadWorker::index; the last
  /// slot serves inline runs (index -1), which the node thread serializes.
  std::vector<MatchScratch> scratch_;
  std::shared_ptr<const SubscriptionIndex> wide_snapshot_;
  bool wide_dirty_ = true;

  /// Delivery-time expansion staging (node thread only): per-batch expanded
  /// hits and offsets, mirroring ServiceJob::hits/offsets post-expansion.
  std::vector<MatchHit> expand_hits_;
  std::vector<std::uint32_t> expand_offsets_;
  std::uint64_t cover_audit_tick_ = 0;  ///< samples the kCover differential

  int busy_cores_ = 0;
  std::size_t next_queue_ = 0;  ///< round-robin pointer across dim queues
  std::uint64_t matched_total_ = 0;
  double busy_seconds_in_window_ = 0.0;  ///< for the utilization report

  // Joining matcher: segments received so far (one per dim required).
  std::vector<bool> joined_dims_;
  std::vector<Range> pending_segments_;
  bool joining_ = false;
  bool left_ = false;
};

}  // namespace bluedove
