#include "node/dispatcher_node.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/export.h"
#include "obs/recorder.h"
#include "obs/trace_export.h"

namespace bluedove {

namespace {

// Flight-recorder event names, interned once per process (obs/recorder.h).
namespace rec {
std::uint16_t publish() {
  static const std::uint16_t id = obs::Recorder::intern("dispatch.publish");
  return id;
}
std::uint16_t forward() {
  static const std::uint16_t id = obs::Recorder::intern("dispatch.forward");
  return id;
}
}  // namespace rec

}  // namespace

DispatcherNode::DispatcherNode(NodeId id, DispatcherConfig config)
    : id_(id), config_(std::move(config)) {
  strategy_ = config_.strategy != nullptr
                  ? config_.strategy
                  : std::make_shared<const MPartition>();
  policy_ = make_policy(config_.policy);
  policy_->set_dispatcher_count(config_.dispatcher_count);
  m_published_ = &metrics_.counter("dispatcher.published");
  m_deliveries_in_ = &metrics_.counter("dispatcher.deliveries_in");
  m_forwarded_ = &metrics_.counter("dispatcher.forwarded");
  m_dropped_ = &metrics_.counter("dispatcher.dropped_no_candidate");
  m_sampled_ = &metrics_.counter("dispatcher.traced");
  m_stats_reqs_ = &metrics_.counter("dispatcher.stats_requests");
}

void DispatcherNode::set_bootstrap(ClusterTable table) {
  table_ = std::move(table);
}

void DispatcherNode::start(NodeContext& ctx) {
  ctx_ = &ctx;
  rebuild_view();
  ctx.set_timer(config_.table_pull_interval, [this] { pull_table(); });
  if (config_.reliable_delivery) {
    ctx.set_timer(config_.retry_interval, [this] { retry_scan(); });
  }
  if (config_.auto_scale) {
    ctx.set_timer(config_.auto_scale_check_interval,
                  [this] { check_saturation(); });
  }
}

void DispatcherNode::on_receive(NodeId from, Envelope env) {
  BD_ASSERT_NODE_THREAD(ctx_);
  std::visit(
      [&](auto&& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, ClientSubscribe>) {
          handle_subscribe(msg);
        } else if constexpr (std::is_same_v<T, ClientUnsubscribe>) {
          handle_unsubscribe(msg);
        } else if constexpr (std::is_same_v<T, ClientPublish>) {
          handle_publish(std::move(msg));
        } else if constexpr (std::is_same_v<T, LoadReport>) {
          handle_load_report(from, msg);
        } else if constexpr (std::is_same_v<T, TablePullResp>) {
          handle_table_resp(msg);
        } else if constexpr (std::is_same_v<T, JoinRequest>) {
          handle_join(from);
        } else if constexpr (std::is_same_v<T, MatchAck>) {
          pending_.erase(msg.msg_id);
        } else if constexpr (std::is_same_v<T, Delivery>) {
          m_deliveries_in_->inc();
          if (on_delivery) on_delivery(msg);
        } else if constexpr (std::is_same_v<T, StatsRequest>) {
          m_stats_reqs_->inc();
          obs::MetricsSnapshot snap = metrics_.snapshot();
          for (const obs::MetricsRegistry* reg : extra_stats_) {
            snap.merge(reg->snapshot());
          }
          ctx_->send(from, Envelope::of(StatsResponse{obs::to_json(snap)}));
        } else if constexpr (std::is_same_v<T, TraceDumpRequest>) {
          ctx_->send(from, Envelope::of(TraceDumpResponse{
                               obs::perfetto_trace_json()}));
        } else {
          BD_DEBUG("dispatcher ", id_, " ignoring ", payload_name(env));
        }
      },
      env.payload);
}

// --------------------------------------------------------------------------
// Client traffic
// --------------------------------------------------------------------------

void DispatcherNode::handle_subscribe(const ClientSubscribe& msg) {
  const std::vector<Assignment> assignments =
      strategy_->assign(view_, msg.sub);
  if (assignments.empty()) {
    BD_WARN("dispatcher ", id_, " has no live matcher for subscription ",
            msg.sub.id);
    return;
  }
  for (const Assignment& a : assignments) {
    ctx_->send(a.matcher, Envelope::of(StoreSubscription{msg.sub, a.dim}));
  }
  placements_[msg.sub.id] = assignments;
}

void DispatcherNode::handle_unsubscribe(const ClientUnsubscribe& msg) {
  auto it = placements_.find(msg.sub.id);
  std::vector<Assignment> assignments;
  if (it != placements_.end()) {
    assignments = it->second;
    placements_.erase(it);
  } else {
    // Unknown here (registered via another dispatcher, or placed before a
    // restart): fall back to recomputing against the current view.
    assignments = strategy_->assign(view_, msg.sub);
  }
  for (const Assignment& a : assignments) {
    ctx_->send(a.matcher, Envelope::of(RemoveSubscription{msg.sub.id, a.dim}));
  }
}

Assignment DispatcherNode::forward(const Message& msg, Timestamp dispatched_at,
                                   const std::vector<NodeId>& exclude,
                                   obs::TraceId trace_id) {
  std::vector<Assignment> candidates = strategy_->candidates(view_, msg);
  if (!exclude.empty()) {
    std::erase_if(candidates, [&](const Assignment& a) {
      return std::find(exclude.begin(), exclude.end(), a.matcher) !=
             exclude.end();
    });
    // All candidates already tried: fall back to the full set rather than
    // dropping (a slow matcher beats no matcher).
    if (candidates.empty()) candidates = strategy_->candidates(view_, msg);
  }
  if (candidates.empty()) return Assignment{kInvalidNode, 0};
  const Assignment choice =
      policy_->pick(candidates, load_view_, ctx_->now(), ctx_->rng());
  policy_->on_forwarded(choice);
  m_forwarded_->inc();
  MatchRequest req;
  req.msg = msg;
  req.dim = choice.dim;
  req.dispatched_at = dispatched_at;
  req.trace_id = trace_id;
  if (trace_id != 0) {
    // Causal span context: identify the dispatcher-side forward that
    // emitted this request, so the matcher's events can point back at it.
    req.parent_span = (static_cast<std::uint64_t>(id_) << 40) | ++span_seq_;
    obs::Recorder::instant(rec::forward(), trace_id, choice.matcher);
  }
  if (config_.reliable_delivery) req.reply_to = id_;
  if (config_.dispatch_work > 0.0) {
    ctx_->charge(config_.dispatch_work,
                 [this, to = choice.matcher, req = std::move(req)]() mutable {
                   ctx_->send(to, Envelope::of(std::move(req)));
                 });
  } else {
    ctx_->send(choice.matcher, Envelope::of(std::move(req)));
  }
  return choice;
}

void DispatcherNode::handle_publish(ClientPublish msg) {
  ++published_;
  m_published_->inc();
  const Timestamp now = ctx_->now();
  // Trace sampling: with the rate at 0 this is one branch and no RNG draw,
  // so the default-off cost on the publish hot path is negligible.
  obs::TraceId trace_id = 0;
  if (config_.trace_sample_rate > 0.0 &&
      ctx_->rng().uniform(0.0, 1.0) < config_.trace_sample_rate) {
    trace_id = (static_cast<obs::TraceId>(id_) << 40) | ++trace_seq_;
    m_sampled_->inc();
  }
  // Recorder span around the whole dispatch decision; carries the trace id
  // when sampled, so the causal track starts on this node.
  obs::ScopedSpan publish_span(rec::publish(), trace_id, msg.msg.id);
  const Assignment choice = forward(msg.msg, now, {}, trace_id);
  if (choice.matcher == kInvalidNode) {
    ++dropped_no_candidate_;
    m_dropped_->inc();
    return;
  }
  if (config_.reliable_delivery) {
    PendingMessage pending;
    pending.dispatched_at = now;
    pending.last_sent = now;
    pending.attempts = 1;
    pending.tried.push_back(choice.matcher);
    const MessageId id = msg.msg.id;
    pending.msg = std::move(msg.msg);
    pending_.emplace(id, std::move(pending));
  }
}

void DispatcherNode::retry_scan() {
  const Timestamp now = ctx_->now();
  std::vector<MessageId> exhausted;
  for (auto& [id, pending] : pending_) {
    if (now - pending.last_sent < config_.retry_timeout) continue;
    if (pending.attempts >= config_.max_attempts) {
      exhausted.push_back(id);
      continue;
    }
    const Assignment choice =
        forward(pending.msg, pending.dispatched_at, pending.tried);
    if (choice.matcher == kInvalidNode) {
      exhausted.push_back(id);
      continue;
    }
    ++retries_sent_;
    ++pending.attempts;
    pending.last_sent = now;
    pending.tried.push_back(choice.matcher);
  }
  for (MessageId id : exhausted) {
    pending_.erase(id);
    ++retries_exhausted_;
  }
  ctx_->set_timer(config_.retry_interval, [this] { retry_scan(); });
}

// --------------------------------------------------------------------------
// Global state maintenance
// --------------------------------------------------------------------------

void DispatcherNode::handle_load_report(NodeId from, const LoadReport& msg) {
  load_view_.apply(from, msg);
  policy_->on_report(from);
}

void DispatcherNode::pull_table() {
  const std::vector<NodeId> live = table_.live_matchers();
  if (!live.empty()) {
    const auto pick =
        static_cast<std::size_t>(ctx_->rng().next_below(live.size()));
    ctx_->send(live[pick], Envelope::of(TablePullReq{}));
  }
  ctx_->set_timer(config_.table_pull_interval, [this] { pull_table(); });
}

void DispatcherNode::handle_table_resp(const TablePullResp& msg) {
  if (table_.merge(msg.table) > 0) rebuild_view();
}

void DispatcherNode::rebuild_view() {
  view_ = SegmentView::build(table_, config_.domains.size());
  for (const auto& [id, entry] : table_.entries()) {
    if (!entry.alive()) load_view_.forget(id);
  }
}

// --------------------------------------------------------------------------
// Elasticity (paper §III-C, Fig 9)
// --------------------------------------------------------------------------

void DispatcherNode::handle_join(NodeId from) {
  // Give the newcomer our current view so it can gossip.
  ctx_->send(from, Envelope::of(TablePullResp{table_}));

  // Per dimension, split the most loaded matcher (by stored subscriptions;
  // fall back to the widest segment before any load has been reported).
  const std::size_t k = config_.domains.size();
  for (std::size_t d = 0; d < k; ++d) {
    NodeId victim = kInvalidNode;
    std::uint64_t best_subs = 0;
    double best_width = -1.0;
    for (const auto& seg : view_.segments(static_cast<DimId>(d))) {
      if (seg.owner == from) continue;
      const LoadView::Entry* entry =
          load_view_.get(seg.owner, static_cast<DimId>(d));
      const std::uint64_t subs =
          entry != nullptr ? entry->load.subscriptions : 0;
      if (victim == kInvalidNode || subs > best_subs ||
          (subs == best_subs && seg.range.width() > best_width)) {
        victim = seg.owner;
        best_subs = subs;
        best_width = seg.range.width();
      }
    }
    if (victim == kInvalidNode) {
      BD_WARN("dispatcher ", id_, " cannot place joiner ", from, " on dim ",
              d);
      continue;
    }
    ctx_->send(victim,
               Envelope::of(SplitCommand{from, static_cast<DimId>(d)}));
  }
}

void DispatcherNode::check_saturation() {
  const LoadView::Totals totals = load_view_.totals();
  const double backlog_floor =
      4.0 * static_cast<double>(std::max<std::size_t>(view_.matcher_count(), 1));
  const bool saturated = totals.arrival_rate > 1.02 * totals.matching_rate &&
                         totals.queue_len > backlog_floor;
  saturated_checks_ = saturated ? saturated_checks_ + 1 : 0;
  if (saturated_checks_ >= config_.auto_scale_patience &&
      ctx_->now() - last_scale_request_ > config_.auto_scale_cooldown) {
    saturated_checks_ = 0;
    last_scale_request_ = ctx_->now();
    BD_INFO("dispatcher ", id_, " detected saturation at t=", ctx_->now(),
            "; requesting capacity");
    if (on_need_capacity) on_need_capacity();
  }
  ctx_->set_timer(config_.auto_scale_check_interval,
                  [this] { check_saturation(); });
}

}  // namespace bluedove
