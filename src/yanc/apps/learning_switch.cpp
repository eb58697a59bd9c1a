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

    std::string switch_dir =
        options_.net_root + "/switches/" + pkt.datapath;
    std::string request = "l2_" + std::to_string(next_out_++);
    auto known = parsed->dl_dst.is_multicast()
                     ? table.end()
                     : table.find(parsed->dl_dst.to_u64());
    if (known == table.end()) {
      // The switch's flood action leaves out the request's in_port.
      ++floods_;
      (void)netfs::write_packet_out(*vfs_, std::move(switch_dir), request,
                                    pkt.in_port, "flood", pkt.data);
      ++handled;
      continue;
    }

    FlowSpec spec;
    spec.match.dl_dst = parsed->dl_dst;
    spec.priority = options_.flow_priority;
    spec.idle_timeout = options_.flow_idle_timeout;
    spec.actions = {Action::output(known->second)};
    if (!netfs::write_flow(*vfs_, switch_dir + "/flows/l2_" +
                                      std::to_string(next_flow_++),
                           spec))
      ++installed_;
    (void)netfs::write_packet_out(*vfs_, std::move(switch_dir), request, 0,
                                  std::to_string(known->second), pkt.data);
    ++handled;
  }
  return handled;
}

}  // namespace yanc::apps
