#include "yanc/apps/arp_responder.hpp"

#include "yanc/net/packet.hpp"
#include "yanc/util/strings.hpp"

namespace yanc::apps {

ArpResponder::ArpResponder(std::shared_ptr<vfs::Vfs> vfs,
                           ArpResponderOptions options)
    : vfs_(std::move(vfs)), options_(std::move(options)) {}

Result<std::size_t> ArpResponder::poll() {
  if (!events_) {
    netfs::NetDir net(vfs_, options_.net_root);
    auto buf = net.open_events(options_.app_name);
    if (!buf) return buf.error();
    events_ = *buf;
  }
  auto pending = events_->drain();
  if (!pending) return pending.error();

  // The registry is hosts/ itself: every host with a mac and ip file is
  // answerable, attached or not (unlike the topology graph, which only
  // tracks located hosts).
  std::map<std::uint32_t, MacAddress> registry;
  if (auto hosts = vfs_->readdir(options_.net_root + "/hosts")) {
    for (const auto& h : *hosts) {
      if (h.type != vfs::FileType::directory) continue;
      std::string dir = options_.net_root + "/hosts/" + h.name;
      auto mac_text = vfs_->read_file(dir + "/mac");
      auto ip_text = vfs_->read_file(dir + "/ip");
      if (!mac_text || !ip_text) continue;
      auto mac = MacAddress::parse(trim(*mac_text));
      auto ip = Ipv4Address::parse(trim(*ip_text));
      if (mac && ip) registry[ip->value()] = *mac;
    }
  }

  std::size_t handled = 0;
  for (const auto& pkt : *pending) {
    net::Frame frame(pkt.data.begin(), pkt.data.end());
    auto parsed = net::parse_frame(frame);
    if (!parsed || !parsed->arp ||
        parsed->arp->op != net::arp_op::request)
      continue;
    auto target = registry.find(parsed->arp->target_ip.value());
    if (target == registry.end()) continue;

    auto reply = net::build_arp(net::arp_op::reply, target->second,
                                parsed->arp->target_ip,
                                parsed->arp->sender_mac,
                                parsed->arp->sender_ip);
    // Answer out of the port the request came in on.
    if (netfs::write_packet_out(
            *vfs_, options_.net_root + "/switches/" + pkt.datapath,
            "arp_" + std::to_string(next_out_++), 0,
            std::to_string(pkt.in_port),
            std::string_view(reinterpret_cast<const char*>(reply.data()),
                             reply.size())))
      continue;
    ++replies_;
    ++handled;
  }
  return handled;
}

}  // namespace yanc::apps
