#pragma once
// DispatcherNode: a front-end dispatching server (paper §II-B).
//
// Dispatchers accept client subscriptions and publications. Subscriptions
// are assigned to matchers by the configured PartitionStrategy (mPartition
// for BlueDove, the baselines' strategies otherwise); publications are
// forwarded one hop to the candidate matcher chosen by the configured
// ForwardingPolicy, using the load feedback pushed by matchers. Dispatchers
// keep their global view current by pulling the gossip table from a random
// matcher every few seconds, and they coordinate matcher joins (victim
// selection + SplitCommands).

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/affinity.h"
#include "common/types.h"
#include "core/forwarding_policy.h"
#include "core/partition_strategy.h"
#include "core/segment_view.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bluedove {

struct DispatcherConfig {
  std::vector<Range> domains;  ///< schema domains (k dimensions)

  std::shared_ptr<const PartitionStrategy> strategy;  ///< default: MPartition
  PolicyKind policy = PolicyKind::kAdaptive;

  double table_pull_interval = 10.0;  ///< paper: pull 60N bytes every 10 s

  /// Number of dispatchers sharing the client traffic (hint for stateful
  /// forwarding policies; the tier splits traffic about evenly).
  std::size_t dispatcher_count = 1;

  /// Per-message dispatch work in units; 0 forwards synchronously (dispatch
  /// is ~100x cheaper than matching per the paper, and never the
  /// bottleneck, so the experiments keep it free).
  double dispatch_work = 0.0;

  /// Reliable delivery (the §VI message-persistence extension): the
  /// dispatcher retains each forwarded message until the matcher
  /// acknowledges it, and re-dispatches unacknowledged messages to another
  /// candidate. Gives at-least-once semantics across matcher failures
  /// (duplicates are possible when a slow matcher is mistaken for a dead
  /// one; consumers can deduplicate on message id).
  bool reliable_delivery = false;
  double retry_interval = 1.0;  ///< scan cadence for unacked messages
  double retry_timeout = 2.5;   ///< age before a message is re-dispatched
  int max_attempts = 5;         ///< give-up bound per message

  /// Auto-scaling (Fig 9): when the load view shows sustained saturation,
  /// invoke on_need_capacity (the operator hook that provisions a VM).
  bool auto_scale = false;
  double auto_scale_check_interval = 5.0;
  /// Consecutive saturated checks required before requesting capacity.
  int auto_scale_patience = 2;
  double auto_scale_cooldown = 30.0;

  /// Fraction of publications given a pipeline trace id (obs/trace.h).
  /// 0 disables sampling entirely — the publish hot path then pays exactly
  /// one branch and draws no random numbers; 1 traces every message.
  double trace_sample_rate = 0.0;
};

class DispatcherNode final : public Node {
 public:
  DispatcherNode(NodeId id, DispatcherConfig config);

  /// Installs the initial cluster table before start().
  void set_bootstrap(ClusterTable table);

  void start(NodeContext& ctx) override;
  void on_receive(NodeId from, Envelope env) override;

  /// Operator hook fired by the auto-scaler; typically provisions a new
  /// matcher process that will send us a JoinRequest.
  std::function<void()> on_need_capacity;

  /// Fired on the node thread for every Delivery envelope addressed to this
  /// dispatcher (matchers send them here when the dispatcher is the
  /// delivery sink). The client edge layer hooks this to fan deliveries out
  /// to its sessions; unset, deliveries are counted and dropped.
  std::function<void(const Delivery&)> on_delivery;

  /// Registers an extra registry whose snapshot is merged into
  /// StatsResponse payloads (e.g. the edge front end's `edge.*` metrics).
  /// The registry must outlive this node. Call before start().
  void add_stats_registry(const obs::MetricsRegistry* reg) {
    extra_stats_.push_back(reg);
  }

  // --- introspection --------------------------------------------------------
  const SegmentView& view() const { return view_; }
  const LoadView& load_view() const { return load_view_; }
  const ClusterTable& table() const { return table_; }
  std::uint64_t published() const { return published_; }
  std::uint64_t dropped_no_candidate() const { return dropped_no_candidate_; }
  std::uint64_t retries_sent() const { return retries_sent_; }
  std::uint64_t retries_exhausted() const { return retries_exhausted_; }
  std::size_t pending_unacked() const { return pending_.size(); }
  const char* policy_name() const { return policy_->name(); }
  /// Node-local observability registry. Snapshot-safe from any thread.
  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  struct PendingMessage {
    Message msg;
    Timestamp dispatched_at = 0.0;
    Timestamp last_sent = 0.0;
    int attempts = 0;
    std::vector<NodeId> tried;
  };

  BD_NODE_THREAD void handle_subscribe(const ClientSubscribe& msg);
  BD_NODE_THREAD void handle_unsubscribe(const ClientUnsubscribe& msg);
  BD_NODE_THREAD void handle_publish(ClientPublish msg);
  BD_NODE_THREAD void handle_load_report(NodeId from, const LoadReport& msg);
  BD_NODE_THREAD void handle_table_resp(const TablePullResp& msg);
  BD_NODE_THREAD void handle_join(NodeId from);

  /// Forwards a message to the best candidate; returns the choice made
  /// (kInvalidNode matcher when no candidate exists). A non-zero `trace_id`
  /// rides along in the MatchRequest for the pipeline-trace breakdown.
  Assignment forward(const Message& msg, Timestamp dispatched_at,
                     const std::vector<NodeId>& exclude,
                     obs::TraceId trace_id = 0);
  void retry_scan();

  void pull_table();
  void rebuild_view();
  void check_saturation();

  NodeId id_;
  DispatcherConfig config_;
  NodeContext* ctx_ = nullptr;

  obs::MetricsRegistry metrics_;
  std::vector<const obs::MetricsRegistry*> extra_stats_;
  obs::Counter* m_published_ = nullptr;
  obs::Counter* m_deliveries_in_ = nullptr;  ///< Delivery envelopes received
  obs::Counter* m_forwarded_ = nullptr;
  obs::Counter* m_dropped_ = nullptr;
  obs::Counter* m_sampled_ = nullptr;     ///< publications given a trace id
  obs::Counter* m_stats_reqs_ = nullptr;  ///< StatsRequest scrapes answered
  std::uint64_t trace_seq_ = 0;           ///< per-dispatcher trace id counter
  std::uint64_t span_seq_ = 0;            ///< causal span ids (recorder)

  ClusterTable table_;
  SegmentView view_;
  LoadView load_view_;
  std::shared_ptr<const PartitionStrategy> strategy_;
  std::unique_ptr<ForwardingPolicy> policy_;

  /// Where each subscription's copies were filed (for unsubscribe).
  std::unordered_map<SubscriptionId, std::vector<Assignment>> placements_;

  std::uint64_t published_ = 0;
  std::uint64_t dropped_no_candidate_ = 0;
  std::uint64_t retries_sent_ = 0;
  std::uint64_t retries_exhausted_ = 0;
  std::unordered_map<MessageId, PendingMessage> pending_;

  int saturated_checks_ = 0;
  Timestamp last_scale_request_ = -1e18;
};

}  // namespace bluedove
