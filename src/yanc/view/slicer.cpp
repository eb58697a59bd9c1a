#include "yanc/view/slicer.hpp"

#include "yanc/net/packet.hpp"
#include "yanc/netfs/flowio.hpp"
#include "yanc/util/strings.hpp"

namespace yanc::view {

using flow::Action;
using flow::ActionKind;
using flow::FlowSpec;

Slicer::Slicer(std::shared_ptr<vfs::Vfs> vfs, std::string parent_root,
               SliceConfig config)
    : vfs_(std::move(vfs)), parent_root_(vfs::normalize_path(parent_root)),
      view_root_(parent_root_ + "/views/" + config.name),
      config_(std::move(config)) {}

bool Slicer::switch_in_slice(const std::string& name) const {
  if (config_.switches.empty()) return true;
  for (const auto& s : config_.switches)
    if (s == name) return true;
  return false;
}

bool Slicer::port_in_slice(const std::string& sw, std::uint16_t port) const {
  auto it = config_.ports.find(sw);
  if (it == config_.ports.end()) return true;
  return it->second.count(port) != 0;
}

Status Slicer::init() {
  if (auto ec = vfs_->mkdir(view_root_);
      ec && ec != make_error_code(Errc::exists))
    return ec;

  // Mirror sliced switches and their (sliced) ports into the view.
  netfs::NetDir parent(vfs_, parent_root_);
  netfs::NetDir child(vfs_, view_root_);
  auto switches = parent.switch_names();
  if (!switches) return switches.error();
  for (const auto& sw_name : *switches) {
    if (!switch_in_slice(sw_name)) continue;
    auto ec = child.add_switch(sw_name);
    if (ec && ec != make_error_code(Errc::exists)) return ec;
    auto src = parent.switch_at(sw_name);
    auto dst = child.switch_at(sw_name);
    // Identity is copied so `ls -l` in the view is meaningful.
    if (auto id = src.datapath_id()) (void)dst.set_datapath_id(*id);
    if (auto v = src.protocol_version())
      (void)dst.set_protocol_version(*v);
    if (auto c = src.connected()) (void)dst.set_connected(*c);
    auto ports = src.port_names();
    if (!ports) continue;
    for (const auto& port_name : *ports) {
      auto no = parse_u64(port_name);
      if (!no || !port_in_slice(sw_name, static_cast<std::uint16_t>(*no)))
        continue;
      auto hw = src.port_at(port_name).hw_addr();
      (void)dst.add_port(static_cast<std::uint16_t>(*no),
                         hw ? *hw : MacAddress{}, "sliced");
    }
  }

  auto events = parent.open_events("slicer-" + config_.name);
  if (!events) return events.error();
  parent_events_ = *events;
  return ok_status();
}

std::optional<FlowSpec> Slicer::translate(const std::string& sw,
                                          const FlowSpec& spec) const {
  auto confined = spec.match.intersect(config_.predicate);
  if (!confined) return std::nullopt;  // disjoint from the slice
  FlowSpec out = spec;
  out.match = *confined;
  // Outputs are confined to the slice's ports; flood becomes an explicit
  // list of the slice's ports on this switch.
  std::vector<Action> actions;
  for (const auto& a : spec.actions) {
    if (a.kind != ActionKind::output) {
      actions.push_back(a);
      continue;
    }
    std::uint16_t port = a.port();
    if (port == flow::port_no::flood || port == flow::port_no::all) {
      auto it = config_.ports.find(sw);
      if (it == config_.ports.end()) {
        actions.push_back(a);  // whole switch is in the slice
      } else {
        for (std::uint16_t p : it->second)
          actions.push_back(Action::output(p));
      }
      continue;
    }
    if (port >= flow::port_no::max || port_in_slice(sw, port))
      actions.push_back(a);
    // Outputs to out-of-slice ports are silently dropped from the list.
  }
  out.actions = std::move(actions);
  return out;
}

std::string Slicer::parent_flow_name(const std::string& sw,
                                     const std::string& name) const {
  (void)sw;
  return "view_" + config_.name + "__" + name;
}

Result<std::size_t> Slicer::poll() {
  std::size_t work = sync_flows();
  work += forward_events();
  return work;
}

std::size_t Slicer::sync_flows() {
  std::size_t work = 0;
  netfs::NetDir child(vfs_, view_root_);
  auto switches = child.switch_names();
  if (!switches) return 0;

  std::set<std::pair<std::string, std::string>> present;
  for (const auto& sw_name : *switches) {
    auto sw = child.switch_at(sw_name);
    auto flows = sw.flow_names();
    if (!flows) continue;
    for (const auto& flow_name : *flows) {
      present.insert({sw_name, flow_name});
      auto spec = sw.flow_at(flow_name).read();
      if (!spec) continue;
      if (spec->version == 0) continue;  // not committed
      auto& pushed_version = pushed_[{sw_name, flow_name}];
      if (spec->version <= pushed_version) continue;

      auto translated = translate(sw_name, *spec);
      std::string parent_flow = parent_root_ + "/switches/" + sw_name +
                                "/flows/" +
                                parent_flow_name(sw_name, flow_name);
      if (!translated) {
        ++rejected_;
        pushed_version = spec->version;
        // A previously-translated version may exist: retract it.
        (void)vfs_->rmdir(parent_flow);
        continue;
      }
      if (!netfs::write_flow(*vfs_, parent_flow, *translated)) ++work;
      pushed_version = spec->version;
    }
  }

  // View flows that disappeared retract their parent counterpart.
  for (auto it = pushed_.begin(); it != pushed_.end();) {
    if (present.count(it->first)) {
      ++it;
      continue;
    }
    const auto& [sw_name, flow_name] = it->first;
    (void)vfs_->rmdir(parent_root_ + "/switches/" + sw_name + "/flows/" +
                      parent_flow_name(sw_name, flow_name));
    it = pushed_.erase(it);
    ++work;
  }
  return work;
}

std::size_t Slicer::forward_events() {
  if (!parent_events_) return 0;
  auto pending = parent_events_->drain();
  if (!pending) return 0;
  std::size_t forwarded = 0;
  for (const auto& pkt : *pending) {
    if (!switch_in_slice(pkt.datapath) ||
        !port_in_slice(pkt.datapath, pkt.in_port))
      continue;
    // Only packets inside the slice's header space are visible.
    net::Frame frame(pkt.data.begin(), pkt.data.end());
    auto parsed = net::parse_frame(frame);
    if (!parsed) continue;
    if (!config_.predicate.matches(parsed->fields(pkt.in_port))) continue;
    forwarded += netfs::deliver_packet_in(*vfs_, view_root_ + "/events", pkt);
  }
  return forwarded;
}

}  // namespace yanc::view
