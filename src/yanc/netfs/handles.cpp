#include "yanc/netfs/handles.hpp"

#include <algorithm>

#include "yanc/util/strings.hpp"

namespace yanc::netfs {

using vfs::Credentials;
using vfs::Vfs;

namespace {

Result<std::vector<std::string>> dir_names(Vfs& vfs, const std::string& path,
                                           const Credentials& creds) {
  auto entries = vfs.readdir(path, creds);
  if (!entries) return entries.error();
  std::vector<std::string> names;
  for (const auto& e : *entries)
    if (e.type == vfs::FileType::directory) names.push_back(e.name);
  return names;
}

Result<std::uint64_t> read_u64_file(Vfs& vfs, const std::string& path,
                                    const Credentials& creds) {
  auto data = vfs.read_file(path, creds);
  if (!data) return data.error();
  return parse_u64(trim(*data));
}

Result<std::uint64_t> read_u64_file(Vfs& vfs, const Vfs::Resolved& dir,
                                    std::string_view name,
                                    const Credentials& creds) {
  auto data = vfs.read_file(dir, name, creds);
  if (!data) return data.error();
  return parse_u64(trim(*data));
}

Result<bool> read_flag_file(Vfs& vfs, const std::string& path,
                            const Credentials& creds) {
  auto data = vfs.read_file(path, creds);
  if (!data) return data.error();
  return trim(*data) == "1";
}

}  // namespace

// --- NetDir ------------------------------------------------------------------

NetDir::NetDir(std::shared_ptr<Vfs> vfs, std::string base, Credentials creds)
    : vfs_(std::move(vfs)), base_(vfs::normalize_path(base)),
      creds_(std::move(creds)) {}

Result<std::vector<std::string>> NetDir::switch_names() const {
  return dir_names(*vfs_, base_ + "/switches", creds_);
}

Status NetDir::add_switch(const std::string& name) {
  return vfs_->mkdir(base_ + "/switches/" + name, 0755, creds_);
}

Status NetDir::remove_switch(const std::string& name) {
  return vfs_->rmdir(base_ + "/switches/" + name, creds_);
}

SwitchHandle NetDir::switch_at(const std::string& name) const {
  return SwitchHandle(vfs_, base_ + "/switches/" + name, creds_);
}

Result<std::vector<std::string>> NetDir::host_names() const {
  return dir_names(*vfs_, base_ + "/hosts", creds_);
}

Status NetDir::add_host(const std::string& name, const MacAddress& mac,
                        const Ipv4Address& ip) {
  std::string path = base_ + "/hosts/" + name;
  if (auto ec = vfs_->mkdir(path, 0755, creds_); ec) return ec;
  if (auto ec = vfs_->write_file(path + "/mac", mac.to_string(), creds_); ec)
    return ec;
  return vfs_->write_file(path + "/ip", ip.to_string(), creds_);
}

HostHandle NetDir::host_at(const std::string& name) const {
  return HostHandle(vfs_, base_ + "/hosts/" + name, creds_);
}

Result<std::vector<std::string>> NetDir::view_names() const {
  return dir_names(*vfs_, base_ + "/views", creds_);
}

Status NetDir::create_view(const std::string& name) {
  return vfs_->mkdir(base_ + "/views/" + name, 0755, creds_);
}

NetDir NetDir::view(const std::string& name) const {
  return NetDir(vfs_, base_ + "/views/" + name, creds_);
}

Result<EventBufferHandle> NetDir::open_events(const std::string& app_name) {
  std::string path = base_ + "/events/" + app_name;
  auto ec = vfs_->mkdir(path, 0755, creds_);
  if (ec && ec != make_error_code(Errc::exists)) return ec;
  return EventBufferHandle(vfs_, path, creds_);
}

// --- SwitchHandle -----------------------------------------------------------

SwitchHandle::SwitchHandle(std::shared_ptr<Vfs> vfs, std::string path,
                           Credentials creds)
    : vfs_(std::move(vfs)), path_(std::move(path)), creds_(std::move(creds)) {}

bool SwitchHandle::exists() const {
  auto st = vfs_->stat(path_, creds_);
  return st.ok() && st->is_dir();
}

Result<std::uint64_t> SwitchHandle::datapath_id() const {
  auto data = vfs_->read_file(path_ + "/id", creds_);
  if (!data) return data.error();
  return parse_hex_u64(trim(*data));
}

Status SwitchHandle::set_datapath_id(std::uint64_t id) {
  return vfs_->write_file(path_ + "/id", "0x" + to_hex(id, 8), creds_);
}

Result<bool> SwitchHandle::connected() const {
  return read_flag_file(*vfs_, path_ + "/connected", creds_);
}

Status SwitchHandle::set_connected(bool up) {
  return vfs_->write_file(path_ + "/connected", up ? "1" : "0", creds_);
}

Result<std::string> SwitchHandle::protocol_version() const {
  auto data = vfs_->read_file(path_ + "/protocol_version", creds_);
  if (!data) return data.error();
  return std::string(trim(*data));
}

Status SwitchHandle::set_protocol_version(const std::string& version) {
  return vfs_->write_file(path_ + "/protocol_version", version, creds_);
}

Result<std::vector<std::string>> SwitchHandle::port_names() const {
  return dir_names(*vfs_, path_ + "/ports", creds_);
}

Status SwitchHandle::add_port(std::uint16_t port_no, const MacAddress& mac,
                              const std::string& if_name) {
  std::string port_path = path_ + "/ports/" + std::to_string(port_no);
  if (auto ec = vfs_->mkdir(port_path, 0755, creds_); ec) return ec;
  if (auto ec = vfs_->write_file(port_path + "/port_no",
                                 std::to_string(port_no), creds_); ec)
    return ec;
  if (auto ec = vfs_->write_file(port_path + "/hw_addr", mac.to_string(),
                                 creds_); ec)
    return ec;
  return vfs_->write_file(port_path + "/name", if_name, creds_);
}

PortHandle SwitchHandle::port_at(const std::string& name) const {
  return PortHandle(vfs_, path_ + "/ports/" + name, creds_);
}

PortHandle SwitchHandle::port_at(std::uint16_t port_no) const {
  return port_at(std::to_string(port_no));
}

Result<std::vector<std::string>> SwitchHandle::flow_names() const {
  return dir_names(*vfs_, path_ + "/flows", creds_);
}

FlowHandle SwitchHandle::flow_at(const std::string& name) const {
  return FlowHandle(vfs_, path_ + "/flows/" + name, creds_);
}

Status SwitchHandle::add_flow(const std::string& name,
                              const flow::FlowSpec& spec, bool commit) {
  return write_flow(*vfs_, path_ + "/flows/" + name, spec, creds_, commit);
}

Status SwitchHandle::remove_flow(const std::string& name) {
  return vfs_->rmdir(path_ + "/flows/" + name, creds_);
}

Result<std::string> SwitchHandle::read_field(const std::string& file) const {
  auto data = vfs_->read_file(path_ + "/" + file, creds_);
  if (!data) return data.error();
  return std::string(trim(*data));
}

Status SwitchHandle::write_field(const std::string& file,
                                 const std::string& value) {
  return vfs_->write_file(path_ + "/" + file, value, creds_);
}

// --- PortHandle --------------------------------------------------------------

PortHandle::PortHandle(std::shared_ptr<Vfs> vfs, std::string path,
                       Credentials creds)
    : vfs_(std::move(vfs)), path_(std::move(path)), creds_(std::move(creds)) {}

bool PortHandle::exists() const {
  auto st = vfs_->stat(path_, creds_);
  return st.ok() && st->is_dir();
}

Result<std::uint16_t> PortHandle::port_no() const {
  auto v = read_u64_file(*vfs_, path_ + "/port_no", creds_);
  if (!v) return v.error();
  if (*v > 0xffff) return Errc::invalid_argument;
  return static_cast<std::uint16_t>(*v);
}

Result<MacAddress> PortHandle::hw_addr() const {
  auto data = vfs_->read_file(path_ + "/hw_addr", creds_);
  if (!data) return data.error();
  return MacAddress::parse(trim(*data));
}

Status PortHandle::set_peer(const std::string& peer_port_path) {
  (void)vfs_->unlink(path_ + "/peer", creds_);
  return vfs_->symlink(peer_port_path, path_ + "/peer", creds_);
}

Result<std::string> PortHandle::peer() const {
  return vfs_->readlink(path_ + "/peer", creds_);
}

Status PortHandle::clear_peer() {
  return vfs_->unlink(path_ + "/peer", creds_);
}

Result<bool> PortHandle::link_down() const {
  return read_flag_file(*vfs_, path_ + "/state.link_down", creds_);
}

Status PortHandle::set_link_down(bool down) {
  return vfs_->write_file(path_ + "/state.link_down", down ? "1" : "0",
                          creds_);
}

Status PortHandle::set_port_down(bool down) {
  return vfs_->write_file(path_ + "/config.port_down", down ? "1" : "0",
                          creds_);
}

Result<bool> PortHandle::port_down() const {
  return read_flag_file(*vfs_, path_ + "/config.port_down", creds_);
}

Result<std::uint64_t> PortHandle::counter(const std::string& name) const {
  return read_u64_file(*vfs_, path_ + "/counters/" + name, creds_);
}

Status PortHandle::bump_counter(const std::string& name, std::uint64_t delta) {
  auto current = counter(name);
  std::uint64_t value = current ? *current : 0;
  return vfs_->write_file(path_ + "/counters/" + name,
                          std::to_string(value + delta), creds_);
}

// --- FlowHandle --------------------------------------------------------------

FlowHandle::FlowHandle(std::shared_ptr<Vfs> vfs, std::string path,
                       Credentials creds)
    : vfs_(std::move(vfs)), path_(std::move(path)), creds_(std::move(creds)) {}

bool FlowHandle::exists() const {
  auto st = vfs_->stat(path_, creds_);
  return st.ok() && st->is_dir();
}

Result<flow::FlowSpec> FlowHandle::read() const {
  return read_flow(*vfs_, path_, creds_);
}

Status FlowHandle::write(const flow::FlowSpec& spec, bool commit) {
  return write_flow(*vfs_, path_, spec, creds_, commit);
}

Result<std::uint64_t> FlowHandle::commit() {
  return commit_flow(*vfs_, path_, creds_);
}

Result<std::uint64_t> FlowHandle::version() const {
  return read_u64_file(*vfs_, path_ + "/version", creds_);
}

Result<flow::FlowStats> FlowHandle::stats() const {
  return read_flow_stats(*vfs_, path_, creds_);
}

// --- HostHandle --------------------------------------------------------------

HostHandle::HostHandle(std::shared_ptr<Vfs> vfs, std::string path,
                       Credentials creds)
    : vfs_(std::move(vfs)), path_(std::move(path)), creds_(std::move(creds)) {}

bool HostHandle::exists() const {
  auto st = vfs_->stat(path_, creds_);
  return st.ok() && st->is_dir();
}

Result<MacAddress> HostHandle::mac() const {
  auto data = vfs_->read_file(path_ + "/mac", creds_);
  if (!data) return data.error();
  return MacAddress::parse(trim(*data));
}

Result<Ipv4Address> HostHandle::ip() const {
  auto data = vfs_->read_file(path_ + "/ip", creds_);
  if (!data) return data.error();
  return Ipv4Address::parse(trim(*data));
}

Status HostHandle::set_location(const std::string& port_path) {
  (void)vfs_->unlink(path_ + "/location", creds_);
  return vfs_->symlink(port_path, path_ + "/location", creds_);
}

Result<std::string> HostHandle::location() const {
  return vfs_->readlink(path_ + "/location", creds_);
}

// --- EventBufferHandle -------------------------------------------------------

EventBufferHandle::EventBufferHandle(std::shared_ptr<Vfs> vfs,
                                     std::string path, Credentials creds)
    : vfs_(std::move(vfs)), path_(std::move(path)), creds_(std::move(creds)) {}

Result<std::vector<std::string>> EventBufferHandle::pending() const {
  return dir_names(*vfs_, path_, creds_);
}

Result<PacketInInfo> EventBufferHandle::read(const std::string& name) const {
  std::string path = path_ + "/" + name;
  auto dir = vfs_->resolve(path, creds_);
  if (!dir) return dir.error();
  PacketInInfo info;
  info.name = name;
  auto dp = vfs_->read_file(*dir, "datapath", creds_);
  if (!dp) return dp.error();
  info.datapath = trim(*dp);
  if (auto v = read_u64_file(*vfs_, *dir, "in_port", creds_))
    info.in_port = static_cast<std::uint16_t>(*v);
  if (auto r = vfs_->read_file(*dir, "reason", creds_))
    info.reason = trim(*r);
  if (auto v = read_u64_file(*vfs_, *dir, "buffer_id", creds_))
    info.buffer_id = static_cast<std::uint32_t>(*v);
  if (auto d = vfs_->read_file(*dir, "data", creds_)) info.data = *d;
  // Claim the causal context the driver staged under this directory's
  // path (first reader wins — matching consume(), which also races at
  // most one winner).  The elapsed time since the driver's put is the
  // event's buffer wait.
  if (obs::tracer().enabled()) {
    if (auto handoff = obs::tracer().path_take(path)) {
      info.trace = handoff.ref;
      std::uint64_t now = obs::Tracer::now_ns();
      info.trace_queue_ns = now > handoff.ts_ns ? now - handoff.ts_ns : 0;
    }
  }
  return info;
}

Status EventBufferHandle::consume(const std::string& name) {
  return vfs_->rmdir(path_ + "/" + name, creds_);
}

Result<std::vector<PacketInInfo>> EventBufferHandle::drain() {
  auto names = pending();
  if (!names) return names.error();
  std::sort(names->begin(), names->end());
  std::vector<PacketInInfo> out;
  for (const auto& name : *names) {
    auto info = read(name);
    if (!info) return info.error();
    out.push_back(std::move(*info));
    if (auto ec = consume(name); ec) return ec;
  }
  return out;
}

Result<std::shared_ptr<vfs::WatchHandle>> EventBufferHandle::watch(
    vfs::WatchQueuePtr queue) {
  return vfs_->watch(path_, vfs::event::created, std::move(queue), creds_);
}

// --- Packet-in delivery and packet-out requests ------------------------------

std::size_t deliver_packet_in(Vfs& vfs, const std::string& events_dir,
                              const PacketInInfo& pkt,
                              const Credentials& creds) {
  auto events = vfs.resolve(events_dir, creds);
  if (!events) return 0;
  auto apps = vfs.readdir(*events, creds);
  if (!apps) return 0;
  // Concurrent delivery to every interested application: each app's
  // private buffer receives its own copy.
  std::size_t reached = 0;
  for (const auto& app : *apps) {
    if (app.type != vfs::FileType::directory) continue;
    auto buffer = vfs.resolve(*events, app.name, creds);
    if (!buffer || vfs.mkdir(*buffer, pkt.name, 0755, creds)) continue;
    auto dir = vfs.resolve(*buffer, pkt.name, creds);
    if (!dir) continue;
    (void)vfs.write_file(*dir, "datapath", pkt.datapath, creds);
    (void)vfs.write_file(*dir, "in_port", std::to_string(pkt.in_port), creds);
    (void)vfs.write_file(*dir, "reason", pkt.reason, creds);
    (void)vfs.write_file(*dir, "buffer_id", std::to_string(pkt.buffer_id),
                         creds);
    (void)vfs.write_file(*dir, "total_len", std::to_string(pkt.total_len),
                         creds);
    (void)vfs.write_file(*dir, "data", pkt.data, creds);
    // Each app drains its buffer on its own thread; hand the context over
    // keyed by the pkt directory's path (the only identity that crosses).
    if (pkt.trace)
      obs::tracer().path_put(events_dir + "/" + app.name + "/" + pkt.name,
                             pkt.trace);
    ++reached;
  }
  return reached;
}

Status write_packet_out(Vfs& vfs, std::string switch_dir,
                        std::string_view name, std::uint16_t in_port,
                        std::string_view out, std::string_view data,
                        const Credentials& creds) {
  auto outbox = vfs.resolve(switch_dir.append("/packet_out"), creds);
  if (!outbox) return outbox.error();
  if (auto ec = vfs.mkdir(*outbox, name, 0755, creds); ec) return ec;
  auto dir = vfs.resolve(*outbox, name, creds);
  if (!dir) return dir.error();
  // mkdir wrote in_port=0 already.
  if (in_port != 0) {
    auto ec = vfs.write_file(*dir, "in_port", std::to_string(in_port), creds);
    if (ec) return ec;
  }
  if (auto ec = vfs.write_file(*dir, "out", out, creds); ec) return ec;
  if (auto ec = vfs.write_file(*dir, "data", data, creds); ec) return ec;
  return vfs.write_file(*dir, "send", "1", creds);
}

std::optional<PacketOutRequest> read_packet_out(Vfs& vfs,
                                                const Vfs::Resolved& dir,
                                                const Credentials& creds) {
  auto send = vfs.read_file(dir, "send", creds);
  if (!send || trim(*send) != "1") return std::nullopt;
  PacketOutRequest request;
  if (auto v = read_u64_file(vfs, dir, "in_port", creds))
    request.in_port = static_cast<std::uint16_t>(*v);
  if (auto out = vfs.read_file(dir, "out", creds))
    for (const auto& tok : split_nonempty(trim(*out), ' '))
      if (auto action = flow::parse_action("out", tok))
        request.outputs.push_back(*action);
  if (auto data = vfs.read_file(dir, "data", creds))
    request.data = std::move(*data);
  return request;
}

}  // namespace yanc::netfs
