#include "yanc/topo/discovery.hpp"

#include "yanc/net/packet.hpp"
#include "yanc/util/strings.hpp"

namespace yanc::topo {

DiscoveryDaemon::DiscoveryDaemon(std::shared_ptr<vfs::Vfs> vfs,
                                 DiscoveryOptions options)
    : vfs_(std::move(vfs)), options_(std::move(options)) {}

Result<std::size_t> DiscoveryDaemon::step(std::uint64_t now_ns) {
  if (auto ec = send_probes(); ec) return ec;
  return consume(now_ns);
}

Status DiscoveryDaemon::send_probes() {
  netfs::NetDir net(vfs_, options_.net_root);
  auto switches = net.switch_names();
  if (!switches) return switches.error();
  for (const auto& sw_name : *switches) {
    auto sw = net.switch_at(sw_name);
    auto ports = sw.port_names();
    if (!ports) continue;
    for (const auto& port_name : *ports) {
      // LLDP chassis/port identify the *sender* so the receiver learns the
      // remote end of the link.
      auto frame = net::build_lldp(sw_name, port_name);
      (void)netfs::write_packet_out(
          *vfs_, sw.path(), "lldp_" + std::to_string(next_probe_++), 0,
          port_name,
          std::string_view(reinterpret_cast<const char*>(frame.data()),
                           frame.size()));
    }
  }
  return ok_status();
}

Result<std::size_t> DiscoveryDaemon::consume(std::uint64_t now_ns) {
  if (!events_) {
    netfs::NetDir net(vfs_, options_.net_root);
    auto buf = net.open_events(options_.app_name);
    if (!buf) return buf.error();
    events_ = *buf;
  }
  auto pending = events_->drain();
  if (!pending) return pending.error();
  for (const auto& pkt : *pending) {
    net::Frame frame(pkt.data.begin(), pkt.data.end());
    auto lldp = net::parse_lldp(frame);
    if (!lldp) continue;  // not ours
    auto src_port = parse_u64(lldp->port_id);
    if (!src_port || *src_port > 0xffff) continue;
    PortRef src{lldp->chassis_id, static_cast<std::uint16_t>(*src_port)};
    PortRef dst{pkt.datapath, pkt.in_port};
    if (auto ec = record_link(src, dst, now_ns); ec) continue;
  }
  expire_links(now_ns);
  return last_seen_.size();
}

Status DiscoveryDaemon::record_link(const PortRef& src, const PortRef& dst,
                                    std::uint64_t now_ns) {
  last_seen_[{src, dst}] = now_ns;
  // The probe travelled src -> dst, so dst's peer is src (and the reverse
  // probe will set the other direction).
  std::string link_path = dst.path(options_.net_root) + "/peer";
  std::string target = src.path(options_.net_root);
  auto current = vfs_->readlink(link_path);
  if (current && *current == target) return ok_status();
  (void)vfs_->unlink(link_path);
  return vfs_->symlink(target, link_path);
}

void DiscoveryDaemon::expire_links(std::uint64_t now_ns) {
  for (auto it = last_seen_.begin(); it != last_seen_.end();) {
    if (now_ns - it->second > options_.link_ttl_ns) {
      const auto& [src, dst] = it->first;
      (void)vfs_->unlink(dst.path(options_.net_root) + "/peer");
      it = last_seen_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace yanc::topo
