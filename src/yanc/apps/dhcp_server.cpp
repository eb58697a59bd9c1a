#include "yanc/apps/dhcp_server.hpp"

#include "yanc/util/bytes.hpp"

namespace yanc::apps {

namespace {
constexpr std::uint32_t kDhcpMagic = 0x63825363;
}

std::vector<std::uint8_t> encode_dhcp(const DhcpMessage& m) {
  BufWriter w;
  w.u8(m.op);
  w.u8(1);  // htype ethernet
  w.u8(6);  // hlen
  w.u8(0);  // hops
  w.u32(m.xid);
  w.u16(0);  // secs
  w.u16(0x8000);  // flags: broadcast
  w.u32(0);  // ciaddr
  w.u32(m.yiaddr.value());
  w.u32(0);  // siaddr
  w.u32(0);  // giaddr
  w.bytes(m.chaddr.bytes());
  w.zeros(10);   // chaddr pad
  w.zeros(64);   // sname
  w.zeros(128);  // file
  w.u32(kDhcpMagic);
  // option 53: message type
  w.u8(53);
  w.u8(1);
  w.u8(m.msg_type);
  if (m.requested_ip) {
    w.u8(50);
    w.u8(4);
    w.u32(m.requested_ip->value());
  }
  w.u8(255);  // end
  return w.take();
}

Result<DhcpMessage> decode_dhcp(std::span<const std::uint8_t> payload) {
  BufReader r(payload);
  DhcpMessage m;
  m.op = r.u8();
  r.skip(3);
  m.xid = r.u32();
  r.skip(4);         // secs+flags
  r.skip(4);         // ciaddr
  m.yiaddr = Ipv4Address(r.u32());
  r.skip(8);         // siaddr+giaddr
  std::array<std::uint8_t, 6> mac{};
  r.bytes(mac);
  m.chaddr = MacAddress(mac);
  r.skip(10 + 64 + 128);
  if (r.u32() != kDhcpMagic) return Errc::protocol_error;
  while (r.ok() && r.remaining() >= 1) {
    std::uint8_t option = r.u8();
    if (option == 255) break;
    if (option == 0) continue;  // pad
    std::uint8_t len = r.u8();
    BufReader value = r.sub(len);
    if (!r.ok()) return Errc::protocol_error;
    if (option == 53)
      m.msg_type = value.u8();
    else if (option == 50)
      m.requested_ip = Ipv4Address(value.u32());
  }
  if (!r.ok()) return Errc::protocol_error;
  return m;
}

DhcpServer::DhcpServer(std::shared_ptr<vfs::Vfs> vfs,
                       DhcpServerOptions options)
    : vfs_(std::move(vfs)), options_(std::move(options)) {}

Result<Ipv4Address> DhcpServer::lease_for(const MacAddress& mac) {
  auto existing = leases_.find(mac.to_u64());
  if (existing != leases_.end()) return existing->second;
  if (next_offset_ >= options_.pool_size) return Errc::no_space;
  Ipv4Address addr(options_.pool_start.value() + next_offset_++);
  leases_[mac.to_u64()] = addr;
  return addr;
}

Result<std::size_t> DhcpServer::poll() {
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
    net::Frame frame(pkt.data.begin(), pkt.data.end());
    auto parsed = net::parse_frame(frame);
    if (!parsed || !parsed->l4 || !parsed->ipv4 ||
        parsed->ipv4->proto != net::ipproto::udp ||
        parsed->l4->dst_port != 67)
      continue;
    auto request = decode_dhcp(parsed->l4_payload);
    if (!request || request->op != 1) continue;

    if (request->msg_type == dhcp_type::discover) {
      auto addr = lease_for(request->chaddr);
      if (!addr) continue;
      if (!reply(pkt, *request, dhcp_type::offer, *addr)) {
        ++offers_;
        ++handled;
      }
    } else if (request->msg_type == dhcp_type::request) {
      auto addr = lease_for(request->chaddr);
      if (!addr) continue;
      bool honored =
          !request->requested_ip || *request->requested_ip == *addr;
      if (!reply(pkt, *request, honored ? dhcp_type::ack : dhcp_type::nak,
                 *addr) &&
          honored) {
        ++acks_;
        ++handled;
        (void)record_host(request->chaddr, *addr);
      }
    }
  }
  return handled;
}

Status DhcpServer::reply(const netfs::PacketInInfo& pkt,
                         const DhcpMessage& request, std::uint8_t type,
                         Ipv4Address addr) {
  DhcpMessage response;
  response.op = 2;
  response.xid = request.xid;
  response.chaddr = request.chaddr;
  response.yiaddr = addr;
  response.msg_type = type;
  auto payload = encode_dhcp(response);
  auto frame = net::build_udp(request.chaddr, options_.server_mac,
                              options_.server_ip, addr, 67, 68, payload);

  return netfs::write_packet_out(
      *vfs_, options_.net_root + "/switches/" + pkt.datapath,
      "dhcp_" + std::to_string(next_out_++), 0, std::to_string(pkt.in_port),
      std::string_view(reinterpret_cast<const char*>(frame.data()),
                       frame.size()));
}

Status DhcpServer::record_host(const MacAddress& mac, Ipv4Address ip) {
  std::string name = "lease-" + std::to_string(ip.value() & 0xff);
  netfs::NetDir net(vfs_, options_.net_root);
  auto ec = net.add_host(name, mac, ip);
  if (ec == make_error_code(Errc::exists)) {
    std::string dir = options_.net_root + "/hosts/" + name;
    (void)vfs_->write_file(dir + "/mac", mac.to_string());
    return vfs_->write_file(dir + "/ip", ip.to_string());
  }
  return ec;
}

}  // namespace yanc::apps
