#include "yanc/sw/switch.hpp"

#include <tuple>

#include "yanc/obs/tracer.hpp"
#include "yanc/util/log.hpp"

namespace yanc::sw {

using flow::Action;
using flow::ActionKind;
namespace port_no = flow::port_no;

Switch::Switch(std::string name, SwitchOptions options, net::Network& network)
    : Device(std::move(name)), options_(options), network_(network) {
  std::uint8_t tables = options_.version == ofp::Version::of10
                            ? 1
                            : std::max<std::uint8_t>(1, options_.n_tables);
  for (std::uint8_t t = 0; t < tables; ++t) tables_[t];
}

std::uint64_t Switch::now_ns() const {
  return static_cast<std::uint64_t>(
      network_.scheduler().now().count());
}

void Switch::add_port(std::uint16_t no, MacAddress hw_addr,
                      std::string if_name) {
  ofp::PortDesc desc;
  desc.port_no = no;
  desc.hw_addr = hw_addr;
  desc.name = std::move(if_name);
  ports_[no] = PortState{desc};
  if (connected())
    send(ofp::PortStatus{ofp::PortStatus::Reason::add, desc});
}

void Switch::connect(net::Channel channel, std::uint64_t epoch) {
  if (epoch == 0 && max_epoch_ == 0) {
    // Single-controller semantics: the new channel replaces any old one.
    ctrls_.clear();
    master_ = kNoCtrl;
  }
  ctrls_.push_back(Ctrl{std::move(channel), epoch});
  // Highest epoch wins mastership; >= makes the latest connect win ties,
  // which is also what keeps the legacy (all-zero-epoch) path working.
  if (master_ == kNoCtrl || epoch >= max_epoch_)
    master_ = ctrls_.size() - 1;
  if (epoch > max_epoch_) max_epoch_ = epoch;
  std::size_t prev = pumping_;
  pumping_ = ctrls_.size() - 1;  // the HELLO belongs to the new connection
  send(ofp::Hello{});
  pumping_ = prev;
}

bool Switch::connected() const {
  for (const auto& ctrl : ctrls_)
    if (ctrl.channel.connected()) return true;
  return false;
}

void Switch::disconnect() {
  for (auto& ctrl : ctrls_) ctrl.channel.close();
  ctrls_.clear();
  master_ = kNoCtrl;
}

std::uint64_t Switch::master_epoch() const {
  return master_ == kNoCtrl ? 0 : ctrls_[master_].epoch;
}

Switch::Ctrl* Switch::send_target() {
  if (pumping_ != kNoCtrl && pumping_ < ctrls_.size())
    return &ctrls_[pumping_];
  if (master_ != kNoCtrl && master_ < ctrls_.size())
    return &ctrls_[master_];
  return nullptr;
}

std::uint32_t Switch::send(const ofp::Message& message, std::uint32_t xid) {
  Ctrl* target = send_target();
  if (!target || !target->channel.connected()) return 0;
  if (xid == 0) xid = next_xid_++;
  auto bytes = ofp::encode(options_.version, xid, message);
  if (!bytes) {
    log_error("sw", "encode failed for " + ofp::message_name(message));
    return 0;
  }
  // A false return means the controller end closed mid-send; pump()
  // observes the disconnect via connected() on its next pass, so the
  // lost message needs no handling here.
  std::ignore = target->channel.send(std::move(*bytes));
  return xid;
}

void Switch::prune_ctrls() {
  for (std::size_t i = ctrls_.size(); i-- > 0;) {
    if (ctrls_[i].channel.connected()) continue;
    ctrls_.erase(ctrls_.begin() + static_cast<std::ptrdiff_t>(i));
  }
  // Re-elect: highest epoch, ties to the most recent connect.  The
  // max_epoch_ high-water mark is deliberately not rolled back — a
  // deposed primary reconnecting with its old token stays fenced.
  master_ = kNoCtrl;
  std::uint64_t best = 0;
  for (std::size_t i = 0; i < ctrls_.size(); ++i) {
    if (master_ == kNoCtrl || ctrls_[i].epoch >= best) {
      master_ = i;
      best = ctrls_[i].epoch;
    }
  }
}

std::size_t Switch::pump() {
  std::size_t handled = 0;
  prune_ctrls();
  for (std::size_t i = 0; i < ctrls_.size(); ++i) {
    pumping_ = i;
    while (auto msg = ctrls_[i].channel.try_recv()) {
      // A batching driver packs a whole commit burst into one buffer; each
      // message still carries its own length-framed header, so split first
      // and decode the frames individually.  A lone message is a train of
      // one — the pre-batching wire format unchanged.
      auto frames = ofp::split_frames(*msg);
      if (!frames) {
        send(ofp::Error{/*type=*/1, /*code=*/0, std::move(*msg)});
        continue;
      }
      for (auto frame : *frames) {
        auto decoded = ofp::decode(frame);
        if (!decoded) {
          send(ofp::Error{/*type=*/1, /*code=*/0,
                          {frame.begin(), frame.end()}});
          continue;
        }
        handle_message(*decoded);
        ++handled;
      }
    }
  }
  pumping_ = kNoCtrl;
  return handled;
}

void Switch::handle_message(const ofp::Decoded& decoded) {
  const auto& m = decoded.message;
  std::uint32_t xid = decoded.header.xid;
  if (std::holds_alternative<ofp::Hello>(m)) return;
  // Epoch fence: state-mutating messages from a connection with a stale
  // fencing token are rejected, so a deposed primary that still believes
  // it owns this switch cannot corrupt the table (docs/ROBUSTNESS.md).
  // Reads (stats, echo, features, barrier) stay open to every connection.
  if (pumping_ != kNoCtrl && ctrls_[pumping_].epoch < max_epoch_ &&
      (std::holds_alternative<ofp::FlowMod>(m) ||
       std::holds_alternative<ofp::PacketOut>(m) ||
       std::holds_alternative<ofp::PortMod>(m))) {
    ++fenced_;
    if (fenced_metric_) fenced_metric_->add();
    send(ofp::Error{1 /*BAD_REQUEST*/, 5 /*EPERM*/, {}}, xid);
    return;
  }
  if (auto* echo = std::get_if<ofp::EchoRequest>(&m)) {
    send(ofp::EchoReply{echo->data}, xid);
    return;
  }
  if (std::holds_alternative<ofp::FeaturesRequest>(m)) {
    ofp::FeaturesReply reply;
    reply.datapath_id = options_.datapath_id;
    reply.n_buffers = options_.n_buffers;
    reply.n_tables = static_cast<std::uint8_t>(tables_.size());
    reply.capabilities = 0x1 | 0x4;  // FLOW_STATS | PORT_STATS
    reply.actions = 0xfff;           // all 1.0 action types
    for (const auto& [no, state] : ports_) reply.ports.push_back(state.desc);
    send(reply, xid);
    return;
  }
  if (auto* fm = std::get_if<ofp::FlowMod>(&m)) {
    handle_flow_mod(*fm, xid);
    return;
  }
  if (auto* po = std::get_if<ofp::PacketOut>(&m)) {
    handle_packet_out(*po);
    return;
  }
  if (auto* sr = std::get_if<ofp::StatsRequest>(&m)) {
    handle_stats(*sr, xid);
    return;
  }
  if (std::holds_alternative<ofp::BarrierRequest>(m)) {
    send(ofp::BarrierReply{}, xid);
    return;
  }
  if (auto* pm = std::get_if<ofp::PortMod>(&m)) {
    handle_port_mod(*pm);
    return;
  }
  // Anything else: a real switch replies OFPET_BAD_REQUEST.
  send(ofp::Error{1, 1, {}}, xid);
}

void Switch::handle_flow_mod(const ofp::FlowMod& fm, std::uint32_t xid) {
  ++flow_mods_;
  // Close the wire leg of a traced commit: queue-wait is the time the
  // encoded FLOW_MOD sat in the channel, service is the table mutation.
  obs::Tracer::Handoff handoff;
  if (obs::tracer().enabled())
    handoff = obs::tracer().wire_take(options_.datapath_id, xid);
  obs::Span trace_span(
      handoff.ref, "sw", "flow_mod",
      handoff ? obs::Tracer::now_ns() - handoff.ts_ns : 0);
  std::uint8_t table = options_.version == ofp::Version::of10
                           ? 0
                           : fm.spec.table_id;
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    send(ofp::Error{3 /*FLOW_MOD_FAILED*/, 2 /*BAD_TABLE_ID*/, {}});
    return;
  }
  FlowTable& t = it->second;
  switch (fm.command) {
    case ofp::FlowMod::Command::add:
      t.add(fm.spec, fm.flags, now_ns());
      break;
    case ofp::FlowMod::Command::modify:
      t.modify(fm.spec, false);
      break;
    case ofp::FlowMod::Command::modify_strict:
      t.modify(fm.spec, true);
      break;
    case ofp::FlowMod::Command::remove:
    case ofp::FlowMod::Command::remove_strict: {
      auto removed =
          t.remove(fm.spec.match, fm.spec.priority,
                   fm.command == ofp::FlowMod::Command::remove_strict,
                   fm.out_port);
      for (const auto& entry : removed) {
        if (entry.flags & ofp::kFlagSendFlowRemoved) {
          ExpiredEntry e{entry, false};
          send_flow_removed(e);
        }
      }
      break;
    }
  }
  // A flow_mod may release a buffered packet through the new rules.
  if (fm.buffer_id != ofp::kNoBuffer) {
    auto buffered = buffers_.find(fm.buffer_id);
    if (buffered != buffers_.end()) {
      net::Frame frame = std::move(buffered->second);
      buffers_.erase(buffered);
      // Re-inject as if it just arrived (in_port taken from the match).
      std::uint16_t in_port = fm.spec.match.in_port.value_or(0);
      handle_frame(in_port, frame);
    }
  }
}

void Switch::handle_packet_out(const ofp::PacketOut& po) {
  net::Frame frame;
  if (po.buffer_id != ofp::kNoBuffer) {
    auto it = buffers_.find(po.buffer_id);
    if (it == buffers_.end()) {
      send(ofp::Error{2 /*BAD_REQUEST*/, 8 /*BUFFER_UNKNOWN*/, {}});
      return;
    }
    frame = std::move(it->second);
    buffers_.erase(it);
  } else {
    frame = po.data;
  }
  execute_actions(po.actions, frame, po.in_port);
}

void Switch::handle_stats(const ofp::StatsRequest& sr, std::uint32_t xid) {
  ofp::StatsReply reply;
  reply.kind = sr.kind;
  switch (sr.kind) {
    case ofp::StatsKind::desc:
      reply.manufacturer = options_.manufacturer;
      reply.hw_desc = options_.hw_desc;
      reply.sw_desc = options_.sw_desc;
      reply.serial.assign(1, '0');
      reply.dp_desc = name();
      break;
    case ofp::StatsKind::flow:
      for (const auto& [tid, table] : tables_) {
        if (sr.table_id != 0xff && sr.table_id != tid) continue;
        for (const auto& e : table.entries()) {
          if (!sr.match.subsumes(e.spec.match)) continue;
          ofp::FlowStatsEntry out;
          out.table_id = tid;
          out.spec = e.spec;
          out.duration_sec = static_cast<std::uint32_t>(
              (now_ns() - e.installed_at_ns) / 1'000'000'000ull);
          out.packet_count = e.packet_count;
          out.byte_count = e.byte_count;
          reply.flows.push_back(std::move(out));
        }
      }
      break;
    case ofp::StatsKind::port:
      for (const auto& [no, state] : ports_) {
        if (sr.port_no != 0xffff && sr.port_no != no) continue;
        ofp::PortStatsEntry p;
        p.port_no = no;
        p.rx_packets = port_counters_rx_[no].first;
        p.rx_bytes = port_counters_rx_[no].second;
        p.tx_packets = port_counters_tx_[no].first;
        p.tx_bytes = port_counters_tx_[no].second;
        reply.ports.push_back(p);
      }
      break;
    case ofp::StatsKind::queue:
      for (const auto& [key, counts] : queue_counters_) {
        if (sr.port_no != 0xffff && sr.port_no != key.first) continue;
        if (sr.queue_id != 0xffffffffu && sr.queue_id != key.second)
          continue;
        ofp::QueueStatsEntry q;
        q.port_no = key.first;
        q.queue_id = key.second;
        q.tx_packets = counts.first;
        q.tx_bytes = counts.second;
        reply.queues.push_back(q);
      }
      break;
    case ofp::StatsKind::port_desc:
      for (const auto& [no, state] : ports_)
        reply.port_descs.push_back(state.desc);
      break;
  }
  send(reply, xid);
}

void Switch::handle_port_mod(const ofp::PortMod& pm) {
  auto it = ports_.find(pm.port_no);
  if (it == ports_.end()) {
    send(ofp::Error{7 /*PORT_MOD_FAILED*/, 0 /*BAD_PORT*/, {}});
    return;
  }
  it->second.desc.port_down = pm.port_down;
  it->second.desc.no_flood = pm.no_flood;
  send(ofp::PortStatus{ofp::PortStatus::Reason::modify, it->second.desc});
}

void Switch::bind_metrics(obs::Registry& registry) {
  hit_metric_ = registry.counter("sw/flow_hit_total");
  miss_metric_ = registry.counter("sw/flow_miss_total");
  fenced_metric_ = registry.counter("sw/fenced_mod_total");
}

void Switch::handle_link_status(std::uint16_t port, bool up) {
  auto it = ports_.find(port);
  if (it == ports_.end()) return;
  it->second.desc.link_down = !up;
  if (connected())
    send(ofp::PortStatus{ofp::PortStatus::Reason::modify, it->second.desc});
}

void Switch::handle_frame(std::uint16_t port, const net::Frame& frame) {
  auto& rx = port_counters_rx_[port];
  ++rx.first;
  rx.second += frame.size();
  auto port_it = ports_.find(port);
  if (port_it != ports_.end() && port_it->second.desc.port_down) {
    ++dropped_;
    return;
  }

  auto parsed = net::parse_frame(frame);
  if (!parsed) {
    ++dropped_;
    return;
  }

  std::uint8_t table_id = 0;
  net::Frame current = frame;
  // OF1.3 pipeline: walk tables following goto-table; OF1.0 has one table.
  for (int hops = 0; hops < 64; ++hops) {
    auto fields = parsed->fields(port);
    auto entry_it = tables_.find(table_id);
    if (entry_it == tables_.end()) {
      ++dropped_;
      return;
    }
    const FlowEntry* entry =
        entry_it->second.lookup(fields, now_ns(), current.size());
    if (!entry) {
      if (miss_metric_) miss_metric_->add();
      send_packet_in(current, port, ofp::PacketIn::Reason::no_match);
      return;
    }
    if (hit_metric_) hit_metric_->add();
    execute_actions(entry->spec.actions, current, port);
    if (entry->spec.goto_table >= 0 &&
        static_cast<std::uint8_t>(entry->spec.goto_table) > table_id) {
      table_id = static_cast<std::uint8_t>(entry->spec.goto_table);
      // Later tables match the packet as rewritten so far.
      auto reparsed = net::parse_frame(current);
      if (!reparsed) {
        ++dropped_;
        return;
      }
      parsed = std::move(reparsed);
      continue;
    }
    return;
  }
}

void Switch::execute_actions(const std::vector<Action>& actions,
                             net::Frame& frame, std::uint16_t in_port) {
  if (actions.empty()) {
    ++dropped_;
    return;
  }
  net::Frame& working = frame;
  for (const auto& action : actions) {
    switch (action.kind) {
      case ActionKind::output:
        output_frame(action.port(), working, in_port);
        break;
      case ActionKind::enqueue: {
        std::uint32_t packed = std::get<std::uint32_t>(action.value);
        std::uint16_t port = static_cast<std::uint16_t>(packed >> 16);
        std::uint32_t queue = packed & 0xffff;
        // Queues share the port's link in this reproduction, but keep
        // their own transmit accounting (reported via queue stats).
        auto& qc = queue_counters_[{port, queue}];
        ++qc.first;
        qc.second += working.size();
        output_frame(port, working, in_port);
        break;
      }
      case ActionKind::drop:
        ++dropped_;
        return;
      default:
        if (auto ec = net::apply_rewrite(working, action); ec) ++dropped_;
        break;
    }
  }
}

void Switch::output_frame(std::uint16_t out_port, const net::Frame& frame,
                          std::uint16_t in_port) {
  auto transmit = [&](std::uint16_t p) {
    auto it = ports_.find(p);
    if (it == ports_.end() || it->second.desc.port_down) {
      ++dropped_;
      return;
    }
    auto& tx = port_counters_tx_[p];
    ++tx.first;
    tx.second += frame.size();
    ++forwarded_;
    network_.transmit(*this, p, frame);
  };

  if (out_port == port_no::controller) {
    send_packet_in(frame, in_port, ofp::PacketIn::Reason::action);
    return;
  }
  if (out_port == port_no::in_port) {
    transmit(in_port);
    return;
  }
  if (out_port == port_no::flood || out_port == port_no::all) {
    for (const auto& [no, state] : ports_) {
      if (no == in_port) continue;
      if (out_port == port_no::flood && state.desc.no_flood) continue;
      transmit(no);
    }
    return;
  }
  if (out_port == port_no::local || out_port == port_no::none) {
    ++dropped_;
    return;
  }
  transmit(out_port);
}

void Switch::send_packet_in(const net::Frame& frame, std::uint16_t in_port,
                            ofp::PacketIn::Reason reason) {
  if (!connected()) {
    ++dropped_;
    return;
  }
  ofp::PacketIn pi;
  pi.total_len = static_cast<std::uint16_t>(frame.size());
  pi.in_port = in_port;
  pi.reason = reason;
  pi.data = frame;
  if (buffers_.size() < options_.n_buffers) {
    pi.buffer_id = next_buffer_id_++;
    buffers_[pi.buffer_id] = frame;
  }
  ++packet_ins_;
  // Ingress of the control-plane pipeline: mint the root of a causal
  // trace and tie it to the in-flight PacketIn's (dpid, xid), so the
  // driver can pick the context up on the far side of the channel.
  obs::TraceRef trace_ref;
  if (obs::tracer().enabled())
    trace_ref = obs::tracer().mint("sw", "packet_in",
                                   "in_port=" + std::to_string(in_port));
  std::uint32_t xid = send(pi);
  if (trace_ref && xid != 0)
    obs::tracer().wire_put(options_.datapath_id, xid, trace_ref);
}

void Switch::send_flow_removed(const ExpiredEntry& expired) {
  ofp::FlowRemoved fr;
  fr.match = expired.entry.spec.match;
  fr.cookie = expired.entry.spec.cookie;
  fr.priority = expired.entry.spec.priority;
  fr.reason = expired.hard ? ofp::FlowRemoved::Reason::hard_timeout
                           : ofp::FlowRemoved::Reason::idle_timeout;
  fr.table_id = expired.entry.spec.table_id;
  fr.duration_sec = static_cast<std::uint32_t>(
      (now_ns() - expired.entry.installed_at_ns) / 1'000'000'000ull);
  fr.packet_count = expired.entry.packet_count;
  fr.byte_count = expired.entry.byte_count;
  send(fr);
}

void Switch::expire_flows() {
  for (auto& [tid, table] : tables_) {
    for (const auto& expired : table.expire(now_ns())) {
      if (expired.entry.flags & ofp::kFlagSendFlowRemoved)
        send_flow_removed(expired);
    }
  }
}

}  // namespace yanc::sw
