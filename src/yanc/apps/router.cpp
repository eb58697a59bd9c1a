#include "yanc/apps/router.hpp"

#include "yanc/net/packet.hpp"
#include "yanc/netfs/flowio.hpp"
#include "yanc/util/strings.hpp"

namespace yanc::apps {

using flow::Action;
using flow::FlowSpec;
using topo::PortRef;

RouterDaemon::RouterDaemon(std::shared_ptr<vfs::Vfs> vfs,
                           RouterOptions options)
    : vfs_(std::move(vfs)), options_(std::move(options)) {}

Result<std::size_t> RouterDaemon::poll() {
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
    if (auto ec = handle_packet(pkt); !ec) ++handled;
  }
  return handled;
}

bool RouterDaemon::is_edge_port(const topo::Graph& graph,
                                const PortRef& ref) const {
  for (const auto& link : graph.links())
    if (link.a == ref || link.b == ref) return false;
  return true;
}

Status RouterDaemon::handle_packet(const netfs::PacketInInfo& pkt) {
  net::Frame frame(pkt.data.begin(), pkt.data.end());
  auto parsed = net::parse_frame(frame);
  if (!parsed) return parsed.error();
  if (parsed->dl_type == net::ethertype::lldp)
    return ok_status();  // the topology daemon's traffic, not ours

  auto graph = topo::read_topology(*vfs_, options_.net_root);
  if (!graph) return graph.error();

  PortRef origin{pkt.datapath, pkt.in_port};

  // Learn the source when it arrived on an edge port.
  if (is_edge_port(*graph, origin) && !parsed->dl_src.is_multicast()) {
    std::optional<Ipv4Address> ip;
    if (parsed->arp)
      ip = parsed->arp->sender_ip;
    else if (parsed->ipv4)
      ip = parsed->ipv4->src;
    if (auto ec = learn_host(parsed->dl_src, ip, origin); ec) return ec;
    // Refresh the graph so this packet can already use the new host.
    graph = topo::read_topology(*vfs_, options_.net_root);
    if (!graph) return graph.error();
  }

  // Broadcast/multicast (ARP requests etc.): flood to the edge.
  if (parsed->dl_dst.is_broadcast() || parsed->dl_dst.is_multicast()) {
    ++floods_;
    return flood_edges(*graph, origin, pkt.data);
  }

  const auto* dst = graph->find_host(parsed->dl_dst);
  if (!dst) {
    // Unknown unicast: flood and let the reply teach us.
    ++floods_;
    return flood_edges(*graph, origin, pkt.data);
  }
  const auto* src = graph->find_host(parsed->dl_src);
  if (!src) {
    // Source unlearnable (e.g. came in on an inter-switch port); just
    // deliver directly to the destination edge.
    return packet_out(dst->location.switch_name, dst->location.port_no,
                      pkt.data);
  }
  return install_path(*graph, *src, *dst, *parsed, pkt.data);
}

Status RouterDaemon::learn_host(const MacAddress& mac,
                                const std::optional<Ipv4Address>& ip,
                                const PortRef& where) {
  // Hosts are named by their MAC with ':' replaced (paths stay tidy).
  std::string name = mac.to_string();
  for (auto& c : name)
    if (c == ':') c = '-';
  std::string dir = options_.net_root + "/hosts/" + name;
  if (auto st = vfs_->stat(dir); !st) {
    if (auto ec = vfs_->mkdir(dir); ec) return ec;
    ++learned_;
  }
  if (auto ec = vfs_->write_file(dir + "/mac", mac.to_string()); ec)
    return ec;
  if (ip)
    if (auto ec = vfs_->write_file(dir + "/ip", ip->to_string()); ec)
      return ec;
  std::string target = where.path(options_.net_root);
  auto current = vfs_->readlink(dir + "/location");
  if (!current || *current != target) {
    (void)vfs_->unlink(dir + "/location");
    return vfs_->symlink(target, dir + "/location");
  }
  return ok_status();
}

Status RouterDaemon::install_path(const topo::Graph& graph,
                                  const topo::HostAttachment& src,
                                  const topo::HostAttachment& dst,
                                  const net::ParsedFrame& parsed,
                                  const std::string& data) {
  auto path = graph.host_path(src, dst);
  if (!path) return make_error_code(Errc::not_connected);

  // Exact-match on the L2 pair (§8: "sets up paths based on exact match").
  flow::Match match;
  match.dl_src = parsed.dl_src;
  match.dl_dst = parsed.dl_dst;

  std::uint16_t hop_in = src.location.port_no;
  for (std::size_t h = 0; h < path->size(); ++h) {
    FlowSpec spec;
    spec.match = match;
    spec.match.in_port = hop_in;
    spec.priority = options_.flow_priority;
    spec.idle_timeout = options_.flow_idle_timeout;
    spec.actions = {Action::output((*path)[h].port_no)};
    std::string flow_dir = options_.net_root + "/switches/" +
                           (*path)[h].switch_name + "/flows/route_" +
                           std::to_string(next_flow_++);
    if (auto ec = netfs::write_flow(*vfs_, flow_dir, spec); ec) return ec;

    if (h + 1 < path->size()) {
      // Ingress of the next hop = far end of this link.
      bool found = false;
      for (const auto& link : graph.links()) {
        if (link.a == (*path)[h]) {
          hop_in = link.b.port_no;
          found = true;
          break;
        }
        if (link.b == (*path)[h]) {
          hop_in = link.a.port_no;
          found = true;
          break;
        }
      }
      if (!found) return make_error_code(Errc::not_connected);
    }
  }
  ++paths_;

  // Deliver the triggering packet at the destination edge so the first
  // packet is not lost while flows propagate.
  return packet_out(dst.location.switch_name, dst.location.port_no, data);
}

Status RouterDaemon::flood_edges(const topo::Graph& graph,
                                 const PortRef& origin,
                                 const std::string& data) {
  netfs::NetDir net(vfs_, options_.net_root);
  auto switches = net.switch_names();
  if (!switches) return switches.error();
  for (const auto& sw_name : *switches) {
    auto ports = net.switch_at(sw_name).port_names();
    if (!ports) continue;
    for (const auto& port_name : *ports) {
      auto no = parse_u64(port_name);
      if (!no) continue;
      PortRef ref{sw_name, static_cast<std::uint16_t>(*no)};
      if (ref == origin || !is_edge_port(graph, ref)) continue;
      if (auto ec = packet_out(sw_name, ref.port_no, data); ec) return ec;
    }
  }
  return ok_status();
}

Status RouterDaemon::packet_out(const std::string& switch_name,
                                std::uint16_t port, const std::string& data) {
  return netfs::write_packet_out(
      *vfs_, options_.net_root + "/switches/" + switch_name,
      "rt_" + std::to_string(next_out_++), 0, std::to_string(port), data);
}

}  // namespace yanc::apps
