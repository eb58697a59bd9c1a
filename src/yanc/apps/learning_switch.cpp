#include "yanc/apps/learning_switch.hpp"

#include "yanc/net/packet.hpp"
#include "yanc/netfs/flowio.hpp"
#include "yanc/obs/tracer.hpp"

namespace yanc::apps {

using flow::Action;
using flow::FlowSpec;

LearningSwitch::LearningSwitch(std::shared_ptr<vfs::Vfs> vfs,
                               LearningSwitchOptions options)
    : vfs_(std::move(vfs)), options_(std::move(options)) {}

std::size_t LearningSwitch::table_size() const {
  std::size_t n = 0;
  for (const auto& [sw, table] : tables_) n += table.size();
  return n;
}

Result<std::size_t> LearningSwitch::poll() {
  if (!events_) {
    netfs::NetDir net(vfs_, options_.net_root);
    auto buf = net.open_events(options_.app_name);
    if (!buf) return buf.error();
    events_ = *buf;
  }
  auto pending = events_->drain();
  if (!pending) return pending.error();
  std::size_t handled = 0;

  for (const auto& pkt : *pending) {
    // One span per packet, parented to the driver's handoff; the buffer
    // wait rides as queue_ns and the scope makes every FS write below
    // (flow install, packet-out) inherit this packet's trace.
    obs::Span trace_span(pkt.trace, "app", "packet_in", pkt.trace_queue_ns);
    obs::TraceScope trace_scope(trace_span.ref());
    net::Frame frame(pkt.data.begin(), pkt.data.end());
    auto parsed = net::parse_frame(frame);
    if (!parsed) continue;
    if (parsed->dl_type == net::ethertype::lldp) continue;
    auto& table = tables_[pkt.datapath];
    if (!parsed->dl_src.is_multicast())
      table[parsed->dl_src.to_u64()] = pkt.in_port;

    if (parsed->dl_dst.is_broadcast() || parsed->dl_dst.is_multicast()) {
      (void)flood(pkt.datapath, pkt.in_port, pkt.data);
      ++handled;
      continue;
    }
    auto known = table.find(parsed->dl_dst.to_u64());
    if (known == table.end()) {
      (void)flood(pkt.datapath, pkt.in_port, pkt.data);
      ++handled;
      continue;
    }

    FlowSpec spec;
    spec.match.dl_dst = parsed->dl_dst;
    spec.priority = options_.flow_priority;
    spec.idle_timeout = options_.flow_idle_timeout;
    spec.actions = {Action::output(known->second)};
    std::string flow_dir = options_.net_root + "/switches/" + pkt.datapath +
                           "/flows/l2_" + std::to_string(next_flow_++);
    if (!netfs::write_flow(*vfs_, flow_dir, spec)) ++installed_;
    (void)packet_out(pkt.datapath, known->second, pkt.data);
    ++handled;
  }
  return handled;
}

Status LearningSwitch::flood(const std::string& datapath,
                             std::uint16_t in_port, const std::string& data) {
  ++floods_;
  (void)in_port;  // the switch's flood action already excludes the ingress
  auto dir = new_packet_out(datapath);
  if (!dir) return dir.error();
  (void)vfs_->write_file(*dir, "in_port", std::to_string(in_port));
  (void)vfs_->write_file(*dir, "out", "flood");
  (void)vfs_->write_file(*dir, "data", data);
  return vfs_->write_file(*dir, "send", "1");
}

Status LearningSwitch::packet_out(const std::string& datapath,
                                  std::uint16_t out_port,
                                  const std::string& data) {
  auto dir = new_packet_out(datapath);
  if (!dir) return dir.error();
  (void)vfs_->write_file(*dir, "out", std::to_string(out_port));
  (void)vfs_->write_file(*dir, "data", data);
  return vfs_->write_file(*dir, "send", "1");
}

Result<vfs::Vfs::Resolved> LearningSwitch::new_packet_out(
    const std::string& datapath) {
  std::string name = "l2_" + std::to_string(next_out_++);
  auto outbox = vfs_->resolve(
      options_.net_root + "/switches/" + datapath + "/packet_out", {});
  if (!outbox) return outbox.error();
  if (auto ec = vfs_->mkdir(*outbox, name); ec) return ec;
  return vfs_->resolve(*outbox, name, {});
}

}  // namespace yanc::apps
