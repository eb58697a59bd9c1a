#include "yanc/driver/text_driver.hpp"

#include <tuple>

#include "yanc/netfs/handles.hpp"
#include "yanc/util/strings.hpp"

namespace yanc::driver {

using vfs::Credentials;

struct TextDriver::Connection {
  net::Channel channel;
  bool ready = false;
  std::string name;
  std::string path;
  // flow name -> version last sent to the device
  std::map<std::string, std::uint64_t> pushed;

  void send_line(const std::string& line) {
    // Failure means the switch end closed; the driver notices via
    // try_recv() on its next poll and reconcile re-pushes state then.
    std::ignore = channel.send(net::Message(line.begin(), line.end()));
  }
};

TextDriver::TextDriver(std::shared_ptr<vfs::Vfs> vfs,
                       TextDriverOptions options)
    : vfs_(std::move(vfs)), options_(std::move(options)) {}

TextDriver::~TextDriver() = default;

std::size_t TextDriver::connected_devices() const {
  std::size_t n = 0;
  for (const auto& conn : connections_)
    if (conn->ready && conn->channel.connected()) ++n;
  return n;
}

std::size_t TextDriver::poll() {
  std::size_t work = 0;
  while (auto channel = listener_.accept()) {
    auto conn = std::make_unique<Connection>();
    conn->channel = std::move(*channel);
    connections_.push_back(std::move(conn));
    ++work;
  }
  for (auto& conn : connections_) {
    while (auto msg = conn->channel.try_recv()) {
      handle_line(*conn, std::string(msg->begin(), msg->end()));
      ++work;
    }
    // A dumb poll-based sync keeps this driver tiny: no watches, just
    // diff the committed versions each quantum.  (The OpenFlow drivers
    // show the watch-based way; both are legal consumers of the FS.)
    if (conn->ready) work += sync_flows(*conn);
  }
  return work;
}

void TextDriver::handle_line(Connection& conn, const std::string& line) {
  auto tokens = split_nonempty(line, ' ');
  if (tokens.empty()) return;
  if (tokens[0] == "HELLO") {
    on_hello(conn, line);
    return;
  }
  if (tokens[0] == "PACKETIN" && conn.ready && tokens.size() >= 3) {
    std::uint16_t port = 0;
    std::string data;
    for (const auto& t : tokens) {
      if (starts_with(t, "port="))
        port = static_cast<std::uint16_t>(
            parse_u64(t.substr(5)).value_or(0));
      else if (starts_with(t, "data="))
        data = t.substr(5);
    }
    deliver_packet_in(conn, port, data);
    return;
  }
  if (tokens[0] == "BYE") {
    if (!conn.path.empty())
      (void)vfs_->write_file(conn.path + "/connected", "0");
    conn.channel.close();
  }
}

void TextDriver::on_hello(Connection& conn, const std::string& line) {
  std::uint64_t id = 0;
  std::vector<std::uint16_t> ports;
  for (const auto& token : split_nonempty(line, ' ')) {
    if (starts_with(token, "id="))
      id = parse_hex_u64(token.substr(3)).value_or(0);
    else if (starts_with(token, "ports="))
      for (const auto& p : split_nonempty(token.substr(6), ','))
        ports.push_back(
            static_cast<std::uint16_t>(parse_u64(p).value_or(0)));
  }
  conn.name = options_.switch_name_prefix + std::to_string(next_index_++);
  conn.path = options_.net_root + "/switches/" + conn.name;
  if (auto ec = vfs_->mkdir(conn.path);
      ec && ec != make_error_code(Errc::exists)) {
    conn.channel.close();
    return;
  }
  (void)vfs_->write_file(conn.path + "/id", "0x" + to_hex(id, 8));
  (void)vfs_->write_file(conn.path + "/protocol_version", "text/1");
  (void)vfs_->write_file(conn.path + "/connected", "1");
  for (std::uint16_t p : ports) {
    std::string port_dir = conn.path + "/ports/" + std::to_string(p);
    (void)vfs_->mkdir(port_dir);
    (void)vfs_->write_file(port_dir + "/port_no", std::to_string(p));
  }
  conn.ready = true;
}

std::size_t TextDriver::sync_flows(Connection& conn) {
  std::size_t work = 0;
  auto flows = vfs_->readdir(conn.path + "/flows");
  if (!flows) return 0;
  std::map<std::string, bool> present;
  for (const auto& entry : *flows) {
    present[entry.name] = true;
    auto spec =
        netfs::read_flow(*vfs_, conn.path + "/flows/" + entry.name);
    if (!spec || spec->version == 0) continue;
    auto& pushed = conn.pushed[entry.name];
    if (spec->version <= pushed) continue;
    conn.send_line("FLOW " + entry.name + " " + spec->to_string());
    pushed = spec->version;
    ++work;
  }
  for (auto it = conn.pushed.begin(); it != conn.pushed.end();) {
    if (present.count(it->first)) {
      ++it;
      continue;
    }
    conn.send_line("UNFLOW " + it->first);
    it = conn.pushed.erase(it);
    ++work;
  }
  return work;
}

void TextDriver::deliver_packet_in(Connection& conn, std::uint16_t port,
                                   const std::string& hex_data) {
  netfs::PacketInInfo pkt;
  // Hex decode the frame.
  for (std::size_t i = 0; i + 1 < hex_data.size(); i += 2) {
    auto byte = parse_hex_u64(hex_data.substr(i, 2));
    if (!byte) return;
    pkt.data.push_back(static_cast<char>(*byte));
  }
  char seq[24];
  std::snprintf(seq, sizeof seq, "xpkt_%09llu",
                static_cast<unsigned long long>(next_pkt_++));
  pkt.name = seq;
  pkt.datapath = conn.name;
  pkt.in_port = port;
  pkt.reason = "no_match";
  pkt.total_len = static_cast<std::uint16_t>(pkt.data.size());
  (void)netfs::deliver_packet_in(*vfs_, options_.net_root + "/events", pkt);
}

}  // namespace yanc::driver
