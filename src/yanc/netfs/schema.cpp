#include "yanc/netfs/schema.hpp"

// The ObjectSpec literals below use designated initializers and rely on the
// members' default values for everything unnamed; GCC's
// -Wmissing-field-initializers flags that style even though it is exactly
// the intent.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmissing-field-initializers"
#endif

#include "yanc/flow/action.hpp"
#include "yanc/util/net_types.hpp"
#include "yanc/util/strings.hpp"

namespace yanc::netfs {
namespace {

Status invalid() { return make_error_code(Errc::invalid_argument); }

Status validate_unsigned(std::string_view value, std::uint64_t max) {
  auto v = parse_u64(trim(value));
  if (!v) return v.error();
  if (*v > max) return invalid();
  return ok_status();
}

}  // namespace

Status validate_field(FieldType type, std::string_view value) {
  switch (type) {
    case FieldType::u64:
      return validate_unsigned(value, ~0ull);
    case FieldType::u16:
      return validate_unsigned(value, 0xffff);
    case FieldType::u8:
      return validate_unsigned(value, 0xff);
    case FieldType::flag: {
      auto t = trim(value);
      return (t == "0" || t == "1") ? ok_status() : invalid();
    }
    case FieldType::hex64: {
      auto v = parse_hex_u64(trim(value));
      return v ? ok_status() : v.error();
    }
    case FieldType::hex16: {
      auto v = parse_hex_u64(trim(value));
      if (!v) return v.error();
      return *v <= 0xffff ? ok_status() : invalid();
    }
    case FieldType::mac: {
      auto v = MacAddress::parse(value);
      return v ? ok_status() : v.error();
    }
    case FieldType::ipv4: {
      auto v = Ipv4Address::parse(value);
      return v ? ok_status() : v.error();
    }
    case FieldType::cidr: {
      auto v = Cidr::parse(value);
      return v ? ok_status() : v.error();
    }
    case FieldType::port_ref: {
      auto t = trim(value);
      if (t.empty()) return invalid();
      for (const auto& tok : split_nonempty(t, ' ')) {
        auto a = flow::parse_action("out", tok);
        if (!a) return a.error();
      }
      return ok_status();
    }
    case FieldType::enqueue: {
      auto a = flow::parse_action("enqueue", trim(value));
      return a ? ok_status() : a.error();
    }
    case FieldType::text: {
      // Single logical line of printable text.
      auto t = trim(value);
      for (char c : t)
        if (c == '\n' || c == '\0') return invalid();
      return ok_status();
    }
    case FieldType::blob:
      return ok_status();
  }
  return invalid();
}

const FileSpec* ObjectSpec::find_file(std::string_view name) const {
  for (const auto& f : files)
    if (name == f.name) return &f;
  return nullptr;
}

bool ObjectSpec::symlink_allowed(std::string_view name) const {
  for (const char* s : symlinks)
    if (name == s) return true;
  return false;
}

namespace {

// Leaf collections of counters.  Drivers keep these in sync with hardware.
const ObjectSpec kSwitchCounters{
    .type_name = "switch_counters",
    .files = {{"packet_ins", FieldType::u64, "0"},
              {"flow_mods", FieldType::u64, "0"},
              {"packet_outs", FieldType::u64, "0"},
              {"flow_expirations", FieldType::u64, "0"}},
};

const ObjectSpec kPortCounters{
    .type_name = "port_counters",
    .files = {{"rx_packets", FieldType::u64, "0"},
              {"tx_packets", FieldType::u64, "0"},
              {"rx_bytes", FieldType::u64, "0"},
              {"tx_bytes", FieldType::u64, "0"},
              {"rx_dropped", FieldType::u64, "0"},
              {"tx_dropped", FieldType::u64, "0"},
              {"rx_errors", FieldType::u64, "0"},
              {"tx_errors", FieldType::u64, "0"}},
};

const ObjectSpec kFlowCounters{
    .type_name = "flow_counters",
    .files = {{"packets", FieldType::u64, "0"},
              {"bytes", FieldType::u64, "0"}},
};

// A flow entry (Fig. 3 right).  match.* / action.* files appear on demand;
// their absence means wildcard / no such action (§3.4).
const ObjectSpec kFlow{
    .type_name = "flow",
    .files =
        {
            {"priority", FieldType::u16, "32768"},
            {"idle_timeout", FieldType::u16, "0"},
            {"hard_timeout", FieldType::u16, "0"},
            {"cookie", FieldType::hex64, "0"},
            {"table_id", FieldType::u8, "0"},
            {"goto_table", FieldType::u8, nullptr},
            {kCommitFile, FieldType::u64, "0"},
            {"match.in_port", FieldType::u16, nullptr},
            {"match.dl_src", FieldType::mac, nullptr},
            {"match.dl_dst", FieldType::mac, nullptr},
            {"match.dl_type", FieldType::hex16, nullptr},
            {"match.dl_vlan", FieldType::u16, nullptr},
            {"match.dl_vlan_pcp", FieldType::u8, nullptr},
            {"match.nw_src", FieldType::cidr, nullptr},
            {"match.nw_dst", FieldType::cidr, nullptr},
            {"match.nw_proto", FieldType::u8, nullptr},
            {"match.nw_tos", FieldType::u8, nullptr},
            {"match.tp_src", FieldType::u16, nullptr},
            {"match.tp_dst", FieldType::u16, nullptr},
            {"action.out", FieldType::port_ref, nullptr},
            {"action.drop", FieldType::flag, nullptr},
            {"action.set_vlan", FieldType::u16, nullptr},
            {"action.strip_vlan", FieldType::flag, nullptr},
            {"action.set_dl_src", FieldType::mac, nullptr},
            {"action.set_dl_dst", FieldType::mac, nullptr},
            {"action.set_nw_src", FieldType::ipv4, nullptr},
            {"action.set_nw_dst", FieldType::ipv4, nullptr},
            {"action.set_nw_tos", FieldType::u8, nullptr},
            {"action.set_tp_src", FieldType::u16, nullptr},
            {"action.set_tp_dst", FieldType::u16, nullptr},
            {"action.enqueue", FieldType::enqueue, nullptr},
        },
    .fixed_dirs = {{"counters", &kFlowCounters}},
    .recursive_rmdir = true,
};

const ObjectSpec kFlowsCollection{
    .type_name = "flows",
    .mkdir_child = &kFlow,
};

// A transmit queue on a port (§8 lists queues among what the paper's
// prototype had NOT yet implemented; this completes it).  min_rate and
// max_rate are in tenths of a percent of link rate, like OpenFlow's
// queue properties.
const ObjectSpec kQueueCounters{
    .type_name = "queue_counters",
    .files = {{"tx_packets", FieldType::u64, "0"},
              {"tx_bytes", FieldType::u64, "0"},
              {"tx_errors", FieldType::u64, "0"}},
};

const ObjectSpec kQueue{
    .type_name = "queue",
    .files = {{"queue_id", FieldType::u64, "0"},
              {"min_rate", FieldType::u16, "0"},
              {"max_rate", FieldType::u16, "1000"}},
    .fixed_dirs = {{"counters", &kQueueCounters}},
    .recursive_rmdir = true,
};

const ObjectSpec kQueuesCollection{
    .type_name = "queues",
    .mkdir_child = &kQueue,
};

// A port (§3.3): status/config files, counters, and the `peer` symlink
// that encodes topology.
const ObjectSpec kPort{
    .type_name = "port",
    .files = {{"port_no", FieldType::u16, "0"},
              {"hw_addr", FieldType::mac, "00:00:00:00:00:00"},
              {"name", FieldType::text, ""},
              {"config.port_down", FieldType::flag, "0"},
              {"config.no_flood", FieldType::flag, "0"},
              {"state.link_down", FieldType::flag, "0"},
              {"state.blocked", FieldType::flag, "0"},
              {"curr_speed", FieldType::u64, "10000000"},
              {"max_speed", FieldType::u64, "10000000"}},
    .fixed_dirs = {{"counters", &kPortCounters},
                   {"queues", &kQueuesCollection}},
    .recursive_rmdir = true,
    .symlinks = {"peer"},
};

const ObjectSpec kPortsCollection{
    .type_name = "ports",
    .mkdir_child = &kPort,
};

// One pending packet-out request: an application fills in the frame and
// output ports, then writes send=1; the driver transmits and consumes the
// directory (the outbound mirror of the events/ packet-in buffers).
const ObjectSpec kPacketOut{
    .type_name = "packet_out",
    .files = {{"in_port", FieldType::u16, "0"},
              {"out", FieldType::port_ref, nullptr},
              {"data", FieldType::blob, ""},
              {"send", FieldType::flag, "0"}},
    .recursive_rmdir = true,
};

const ObjectSpec kPacketOutCollection{
    .type_name = "packet_out_queue",
    .mkdir_child = &kPacketOut,
};

// A switch (Fig. 3 left).  Drivers populate the identity fields after the
// OpenFlow handshake.
const ObjectSpec kSwitch{
    .type_name = "switch",
    .files = {{"id", FieldType::hex64, "0"},
              {"capabilities", FieldType::hex64, "0"},
              {"actions", FieldType::hex64, "0"},
              {"num_buffers", FieldType::u64, "0"},
              {"num_tables", FieldType::u64, "1"},
              {"manufacturer", FieldType::text, ""},
              {"hw_desc", FieldType::text, ""},
              {"sw_desc", FieldType::text, ""},
              {"protocol_version", FieldType::text, ""},
              {"connected", FieldType::flag, "0"},
              // Liveness verdict maintained by the driver's keepalive:
              // "up" after the handshake, "down" on timeout/disconnect.
              {"status", FieldType::text, "down"}},
    .fixed_dirs = {{"counters", &kSwitchCounters},
                   {"flows", &kFlowsCollection},
                   {"packet_out", &kPacketOutCollection},
                   {"ports", &kPortsCollection}},
    .recursive_rmdir = true,
};

const ObjectSpec kSwitchesCollection{
    .type_name = "switches",
    .mkdir_child = &kSwitch,
};

// A host: learned or administratively declared endpoints; `location`
// symlinks to the port the host is attached to.
const ObjectSpec kHost{
    .type_name = "host",
    .files = {{"mac", FieldType::mac, "00:00:00:00:00:00"},
              {"ip", FieldType::ipv4, "0.0.0.0"}},
    .recursive_rmdir = true,
    .symlinks = {"location"},
};

const ObjectSpec kHostsCollection{
    .type_name = "hosts",
    .mkdir_child = &kHost,
};

// A middlebox (§7.2): fixed-function or programmable, its state exposed
// through the file system by a middlebox driver.  The state/ directory is
// deliberately *unstructured* (strict_files = false): each middlebox kind
// stores whatever records it has, and elastic scaling is `cp`/`mv` of
// state files between instances — "we can use command line utilities such
// as cp or mv to move state around rather than custom protocols."
const ObjectSpec kMiddleboxState{
    .type_name = "middlebox_state",
    .strict_files = false,
    .recursive_rmdir = true,
};

const ObjectSpec kMiddlebox{
    .type_name = "middlebox",
    .files = {{"kind", FieldType::text, ""},
              {"vendor", FieldType::text, ""},
              {"instances", FieldType::u64, "1"},
              {"connected", FieldType::flag, "0"}},
    .fixed_dirs = {{"state", &kMiddleboxState}},
    .recursive_rmdir = true,
    .symlinks = {"attachment"},  // the port the box hangs off
};

const ObjectSpec kMiddleboxesCollection{
    .type_name = "middleboxes",
    .mkdir_child = &kMiddlebox,
};

// One packet-in message inside an application's private event buffer
// (§3.5): created by the driver, consumed (rmdir'ed) by the application.
const ObjectSpec kPacketIn{
    .type_name = "packet_in",
    .files = {{"datapath", FieldType::text, ""},
              {"in_port", FieldType::u16, "0"},
              {"reason", FieldType::text, "no_match"},
              {"buffer_id", FieldType::u64, "0"},
              {"total_len", FieldType::u64, "0"},
              {"data", FieldType::blob, ""}},
    .recursive_rmdir = true,
};

// An application's private packet-in buffer: mkdir events/<app> creates
// one; the driver then feeds packet-in dirs into every buffer (§3.5).
const ObjectSpec kEventBuffer{
    .type_name = "event_buffer",
    .mkdir_child = &kPacketIn,
    .recursive_rmdir = true,
};

const ObjectSpec kEventsCollection{
    .type_name = "events",
    .mkdir_child = &kEventBuffer,
};

// The root spec and the views collection refer to each other (a view is a
// nested root, §4.2), so both live in one lazily-built bundle.
struct RootBundle {
  ObjectSpec views_collection;
  ObjectSpec root;
};

const RootBundle& root_bundle() {
  static const RootBundle* bundle = [] {
    auto* b = new RootBundle;
    b->views_collection.type_name = "views";
    b->root.type_name = "net";
    b->root.fixed_dirs = {{"hosts", &kHostsCollection},
                          {"middleboxes", &kMiddleboxesCollection},
                          {"switches", &kSwitchesCollection},
                          {"views", &b->views_collection},
                          {"events", &kEventsCollection}};
    // A view (same spec as the root) is removable as a unit.
    b->root.recursive_rmdir = true;
    // Runtime subtrees (/net/.cluster lease files) live beside the schema
    // dirs so the replicated FS carries them; see ObjectSpec::allow_hidden.
    b->root.allow_hidden = true;
    b->views_collection.mkdir_child = &b->root;
    return b;
  }();
  return *bundle;
}

}  // namespace

const ObjectSpec& root_spec() { return root_bundle().root; }
const ObjectSpec& switch_spec() { return kSwitch; }
const ObjectSpec& port_spec() { return kPort; }
const ObjectSpec& flow_spec() { return kFlow; }
const ObjectSpec& host_spec() { return kHost; }
const ObjectSpec& event_buffer_spec() { return kEventBuffer; }
const ObjectSpec& packet_in_spec() { return kPacketIn; }

}  // namespace yanc::netfs
