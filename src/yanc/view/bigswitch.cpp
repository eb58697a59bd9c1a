#include "yanc/view/bigswitch.hpp"

#include <set>

#include "yanc/net/packet.hpp"
#include "yanc/netfs/flowio.hpp"
#include "yanc/util/strings.hpp"

namespace yanc::view {

using flow::Action;
using flow::ActionKind;
using flow::FlowSpec;

BigSwitch::BigSwitch(std::shared_ptr<vfs::Vfs> vfs, std::string parent_root,
                     BigSwitchConfig config)
    : vfs_(std::move(vfs)), parent_root_(vfs::normalize_path(parent_root)),
      view_root_(parent_root_ + "/views/" + config.view_name),
      config_(std::move(config)) {}

std::uint16_t BigSwitch::virtual_port(const topo::PortRef& edge) const {
  for (std::size_t i = 0; i < config_.edge_ports.size(); ++i)
    if (config_.edge_ports[i] == edge)
      return static_cast<std::uint16_t>(i + 1);
  return 0;
}

Status BigSwitch::init() {
  if (auto ec = vfs_->mkdir(view_root_);
      ec && ec != make_error_code(Errc::exists))
    return ec;
  netfs::NetDir child(vfs_, view_root_);
  if (auto ec = child.add_switch(config_.switch_name);
      ec && ec != make_error_code(Errc::exists))
    return ec;
  auto vsw = child.switch_at(config_.switch_name);
  (void)vsw.set_connected(true);
  (void)vsw.set_protocol_version("virtual");
  for (std::size_t i = 0; i < config_.edge_ports.size(); ++i) {
    std::uint16_t vport = static_cast<std::uint16_t>(i + 1);
    auto ec = vsw.add_port(vport, MacAddress::from_u64(0x020000bb0000ull | vport),
                           config_.edge_ports[i].switch_name + ":" +
                               std::to_string(config_.edge_ports[i].port_no));
    if (ec && ec != make_error_code(Errc::exists)) return ec;
  }
  netfs::NetDir parent(vfs_, parent_root_);
  auto events = parent.open_events("bigswitch-" + config_.view_name);
  if (!events) return events.error();
  parent_events_ = *events;
  return ok_status();
}

Result<std::size_t> BigSwitch::poll() {
  std::size_t work = sync_flows();
  work += forward_events();
  return work;
}

std::size_t BigSwitch::sync_flows() {
  std::size_t work = 0;
  netfs::NetDir child(vfs_, view_root_);
  auto vsw = child.switch_at(config_.switch_name);
  auto flows = vsw.flow_names();
  if (!flows) return 0;

  std::set<std::string> present(flows->begin(), flows->end());
  for (const auto& flow_name : *flows) {
    auto spec = vsw.flow_at(flow_name).read();
    if (!spec || spec->version == 0) continue;
    auto& version = pushed_[flow_name];
    if (spec->version <= version) continue;
    retract_flow(flow_name);  // recompile from scratch on change
    if (compile_flow(flow_name, *spec)) {
      ++rejected_;
    } else {
      ++compiled_;
      ++work;
    }
    version = spec->version;
  }
  for (auto it = pushed_.begin(); it != pushed_.end();) {
    if (present.count(it->first)) {
      ++it;
    } else {
      retract_flow(it->first);
      it = pushed_.erase(it);
      ++work;
    }
  }
  return work;
}

Status BigSwitch::compile_flow(const std::string& flow_name,
                               const FlowSpec& spec) {
  // Supported shape: optional virtual in_port, one or more virtual output
  // ports (other actions are carried along and applied at the egress hop).
  std::vector<std::uint16_t> out_vports;
  std::vector<Action> rewrites;
  for (const auto& a : spec.actions) {
    if (a.kind == ActionKind::output) {
      std::uint16_t p = a.port();
      if (p >= flow::port_no::max)
        return make_error_code(Errc::not_supported);  // no flood on big sw
      if (p == 0 || p > config_.edge_ports.size())
        return make_error_code(Errc::invalid_argument);
      out_vports.push_back(p);
    } else {
      rewrites.push_back(a);
    }
  }
  if (out_vports.empty() && !spec.actions.empty())
    return make_error_code(Errc::not_supported);

  std::vector<std::uint16_t> in_vports;
  if (spec.match.in_port) {
    if (*spec.match.in_port == 0 ||
        *spec.match.in_port > config_.edge_ports.size())
      return make_error_code(Errc::invalid_argument);
    in_vports.push_back(*spec.match.in_port);
  } else {
    for (std::size_t i = 0; i < config_.edge_ports.size(); ++i)
      in_vports.push_back(static_cast<std::uint16_t>(i + 1));
  }

  auto graph = topo::read_topology(*vfs_, parent_root_);
  if (!graph) return graph.error();

  std::vector<std::string> installed;
  // On any failure the partial installation is rolled back so a rejected
  // virtual flow leaves no residue in the parent.
  auto rollback = [&](Status ec) {
    for (const auto& flow_path : installed) (void)vfs_->rmdir(flow_path);
    return ec;
  };
  int seq = 0;
  for (std::uint16_t vin : in_vports) {
    const topo::PortRef& ingress = config_.edge_ports[vin - 1];
    for (std::uint16_t vout : out_vports) {
      if (vout == vin) continue;
      const topo::PortRef& egress = config_.edge_ports[vout - 1];
      auto hops = graph->shortest_path(ingress.switch_name,
                                       egress.switch_name);
      if (!hops) return rollback(make_error_code(Errc::not_connected));
      // Build the hop list ending at the egress port itself.
      topo::Path path = *hops;
      path.push_back(egress);

      std::uint16_t hop_in = ingress.port_no;
      for (std::size_t h = 0; h < path.size(); ++h) {
        FlowSpec hop_spec;
        hop_spec.match = spec.match;
        hop_spec.match.in_port = hop_in;
        hop_spec.priority = spec.priority;
        hop_spec.idle_timeout = spec.idle_timeout;
        hop_spec.hard_timeout = spec.hard_timeout;
        bool last = h + 1 == path.size();
        if (last)  // header rewrites are applied at the egress hop
          hop_spec.actions = rewrites;
        hop_spec.actions.push_back(Action::output(path[h].port_no));

        std::string parent_flow =
            parent_root_ + "/switches/" + path[h].switch_name + "/flows/" +
            "big_" + config_.view_name + "__" + flow_name + "_" +
            std::to_string(seq++);
        if (auto ec = netfs::write_flow(*vfs_, parent_flow, hop_spec); ec)
          return rollback(ec);
        installed.push_back(parent_flow);

        // The next switch on the path receives the packet on the port at
        // the far end of this hop's link.
        if (!last) {
          // Find the peer of (switch, egress port) in the topology.
          bool found = false;
          for (const auto& link : graph->links()) {
            if (link.a == path[h]) {
              hop_in = link.b.port_no;
              found = true;
              break;
            }
            if (link.b == path[h]) {
              hop_in = link.a.port_no;
              found = true;
              break;
            }
          }
          if (!found) return rollback(make_error_code(Errc::not_connected));
        }
      }
    }
  }
  installed_[flow_name] = std::move(installed);
  return ok_status();
}

void BigSwitch::retract_flow(const std::string& flow_name) {
  auto it = installed_.find(flow_name);
  if (it == installed_.end()) return;
  for (const auto& path : it->second) (void)vfs_->rmdir(path);
  installed_.erase(it);
}

std::size_t BigSwitch::forward_events() {
  if (!parent_events_) return 0;
  auto pending = parent_events_->drain();
  if (!pending) return 0;
  std::size_t forwarded = 0;
  for (auto& pkt : *pending) {
    std::uint16_t vport =
        virtual_port(topo::PortRef{pkt.datapath, pkt.in_port});
    if (vport == 0) continue;  // not an edge port of this big switch
    pkt.datapath = config_.switch_name;
    pkt.in_port = vport;
    forwarded += netfs::deliver_packet_in(*vfs_, view_root_ + "/events", pkt);
  }
  return forwarded;
}

}  // namespace yanc::view
