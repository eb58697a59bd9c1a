// Typed convenience handles over the yanc file system — the non-shared-
// memory half of "libyanc" (§8.1): network-centric calls that compile down
// to ordinary file I/O, so applications using them still interoperate with
// shell scripts, cron jobs and every other process poking the same files.
//
// A NetDir points at a yanc root: "/net" for the master view, or
// "/net/views/<v>" for any nested view — the API is identical either way,
// which is how view transparency (§4.2) manifests in code.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "yanc/flow/flowspec.hpp"
#include "yanc/netfs/flowio.hpp"
#include "yanc/obs/tracer.hpp"
#include "yanc/vfs/vfs.hpp"

namespace yanc::netfs {

class SwitchHandle;
class PortHandle;
class FlowHandle;
class HostHandle;
class EventBufferHandle;

/// One decoded packet-in event (§3.5): the files of a pkt_* directory.
struct PacketInInfo {
  std::string name;      // directory name inside the buffer
  std::string datapath;  // switch name
  std::uint16_t in_port = 0;
  std::string reason;    // "no_match" | "action"
  std::uint32_t buffer_id = 0;
  std::uint16_t total_len = 0;  // written on delivery; read() leaves it 0
  std::string data;      // raw frame bytes

  // Causal context the driver handed over with this pkt_* directory
  // (zero when the packet-in was untraced).  `trace_queue_ns` is how long
  // the event sat in the buffer before this app read it — the app's span
  // should pass it as queue_ns so wait and service stay separated.
  obs::TraceRef trace;
  std::uint64_t trace_queue_ns = 0;
};

/// Delivers `pkt` to every application buffer under `events_dir` (§3.5):
/// makes <app>/<pkt.name> in each and writes its six fields, then hands
/// `pkt.trace` to that buffer's reader (EventBufferHandle::read).  A
/// buffer whose directory cannot be made is skipped.  Returns the number
/// of buffers reached.
std::size_t deliver_packet_in(vfs::Vfs& vfs, const std::string& events_dir,
                              const PacketInInfo& pkt,
                              const vfs::Credentials& creds = {});

/// One packet-out request (packet_out/<name>/) whose send flag is set.
struct PacketOutRequest {
  std::uint16_t in_port = 0;          // 0: none
  std::vector<flow::Action> outputs;  // the `out` file's ports
  std::string data;                   // raw frame bytes
};

/// Makes the request <switch_dir>/packet_out/<name>: writes in_port
/// (when nonzero), `out` (one or more output ports, by number or by
/// reserved name such as "flood"), `data`, and send=1 last, so the driver
/// never sends a half-written request.  A failed field write is returned
/// and leaves send unwritten.
[[nodiscard]] Status write_packet_out(vfs::Vfs& vfs, std::string switch_dir,
                                      std::string_view name,
                                      std::uint16_t in_port,
                                      std::string_view out,
                                      std::string_view data,
                                      const vfs::Credentials& creds = {});

/// Reads the packet-out request `dir`; nullopt until its send file reads 1.
std::optional<PacketOutRequest> read_packet_out(
    vfs::Vfs& vfs, const vfs::Vfs::Resolved& dir,
    const vfs::Credentials& creds = {});

class NetDir {
 public:
  NetDir(std::shared_ptr<vfs::Vfs> vfs, std::string base = "/net",
         vfs::Credentials creds = {});

  const std::string& base() const noexcept { return base_; }
  vfs::Vfs& vfs() noexcept { return *vfs_; }
  const vfs::Credentials& credentials() const noexcept { return creds_; }

  // switches/
  Result<std::vector<std::string>> switch_names() const;
  [[nodiscard]] Status add_switch(const std::string& name);
  [[nodiscard]] Status remove_switch(const std::string& name);
  SwitchHandle switch_at(const std::string& name) const;

  // hosts/
  Result<std::vector<std::string>> host_names() const;
  [[nodiscard]] Status add_host(const std::string& name, const MacAddress& mac,
                  const Ipv4Address& ip);
  HostHandle host_at(const std::string& name) const;

  // views/ — a view is just another NetDir rooted deeper (§4.2).
  Result<std::vector<std::string>> view_names() const;
  [[nodiscard]] Status create_view(const std::string& name);
  NetDir view(const std::string& name) const;

  // events/ — private packet-in buffers (§3.5).
  Result<EventBufferHandle> open_events(const std::string& app_name);

 private:
  std::shared_ptr<vfs::Vfs> vfs_;
  std::string base_;
  vfs::Credentials creds_;
};

/// A switch directory (Fig. 3 left).
class SwitchHandle {
 public:
  SwitchHandle(std::shared_ptr<vfs::Vfs> vfs, std::string path,
               vfs::Credentials creds);

  const std::string& path() const noexcept { return path_; }
  bool exists() const;

  Result<std::uint64_t> datapath_id() const;
  [[nodiscard]] Status set_datapath_id(std::uint64_t id);
  Result<bool> connected() const;
  [[nodiscard]] Status set_connected(bool up);
  Result<std::string> protocol_version() const;
  [[nodiscard]] Status set_protocol_version(const std::string& version);

  // ports/
  Result<std::vector<std::string>> port_names() const;
  [[nodiscard]] Status add_port(std::uint16_t port_no, const MacAddress& mac,
                  const std::string& if_name);
  PortHandle port_at(const std::string& name) const;
  PortHandle port_at(std::uint16_t port_no) const;

  // flows/
  Result<std::vector<std::string>> flow_names() const;
  FlowHandle flow_at(const std::string& name) const;
  /// Creates flows/<name> and writes `spec` (committed when commit=true).
  [[nodiscard]] Status add_flow(const std::string& name, const flow::FlowSpec& spec,
                  bool commit = true);
  [[nodiscard]] Status remove_flow(const std::string& name);

  /// Reads a file directly under the switch dir ("capabilities", ...).
  Result<std::string> read_field(const std::string& file) const;
  [[nodiscard]] Status write_field(const std::string& file, const std::string& value);

 private:
  std::shared_ptr<vfs::Vfs> vfs_;
  std::string path_;
  vfs::Credentials creds_;
};

/// A port directory (§3.3).
class PortHandle {
 public:
  PortHandle(std::shared_ptr<vfs::Vfs> vfs, std::string path,
             vfs::Credentials creds);

  const std::string& path() const noexcept { return path_; }
  bool exists() const;

  Result<std::uint16_t> port_no() const;
  Result<MacAddress> hw_addr() const;

  /// Topology: the `peer` symlink (§3.3).
  [[nodiscard]] Status set_peer(const std::string& peer_port_path);
  Result<std::string> peer() const;  // ENOENT when no link
  [[nodiscard]] Status clear_peer();

  Result<bool> link_down() const;
  [[nodiscard]] Status set_link_down(bool down);
  [[nodiscard]] Status set_port_down(bool down);
  Result<bool> port_down() const;

  Result<std::uint64_t> counter(const std::string& name) const;
  [[nodiscard]] Status bump_counter(const std::string& name, std::uint64_t delta);

 private:
  std::shared_ptr<vfs::Vfs> vfs_;
  std::string path_;
  vfs::Credentials creds_;
};

/// A flow directory (Fig. 3 right) with the §3.4 commit protocol.
class FlowHandle {
 public:
  FlowHandle(std::shared_ptr<vfs::Vfs> vfs, std::string path,
             vfs::Credentials creds);

  const std::string& path() const noexcept { return path_; }
  bool exists() const;

  Result<flow::FlowSpec> read() const;
  [[nodiscard]] Status write(const flow::FlowSpec& spec, bool commit = true);
  Result<std::uint64_t> commit();
  Result<std::uint64_t> version() const;
  Result<flow::FlowStats> stats() const;

 private:
  std::shared_ptr<vfs::Vfs> vfs_;
  std::string path_;
  vfs::Credentials creds_;
};

/// A host directory with its `location` link.
class HostHandle {
 public:
  HostHandle(std::shared_ptr<vfs::Vfs> vfs, std::string path,
             vfs::Credentials creds);

  const std::string& path() const noexcept { return path_; }
  bool exists() const;
  Result<MacAddress> mac() const;
  Result<Ipv4Address> ip() const;
  [[nodiscard]] Status set_location(const std::string& port_path);
  Result<std::string> location() const;

 private:
  std::shared_ptr<vfs::Vfs> vfs_;
  std::string path_;
  vfs::Credentials creds_;
};

/// An application's private packet-in buffer (events/<app>/, §3.5).
/// Drivers deposit pkt_* directories; the application polls or watches,
/// then consumes them.
class EventBufferHandle {
 public:
  EventBufferHandle() = default;
  EventBufferHandle(std::shared_ptr<vfs::Vfs> vfs, std::string path,
                    vfs::Credentials creds);

  const std::string& path() const noexcept { return path_; }

  /// Names of pending packet-in directories (oldest-first by name).
  Result<std::vector<std::string>> pending() const;
  /// Reads one packet-in.
  Result<PacketInInfo> read(const std::string& name) const;
  /// Removes a consumed packet-in.
  [[nodiscard]] Status consume(const std::string& name);
  /// Reads and consumes everything pending.
  Result<std::vector<PacketInInfo>> drain();
  /// Registers a watch for new packet-ins.
  Result<std::shared_ptr<vfs::WatchHandle>> watch(vfs::WatchQueuePtr queue);

 private:
  std::shared_ptr<vfs::Vfs> vfs_;
  std::string path_;
  vfs::Credentials creds_;
};

}  // namespace yanc::netfs
