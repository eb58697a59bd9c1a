// The yanc device driver (§4.1): a thin component that speaks one OpenFlow
// version to a collection of switches and translates between the wire
// protocol and the yanc file system.
//
// Everything flows through the FS:
//   switch connects  -> driver performs the handshake and *creates the
//                       switch directory* (Fig. 3): identity files, ports/,
//                       flows/, counters/, packet_out/
//   app commits flow -> driver's watch on the flow's version file fires ->
//                       FLOW_MOD on the wire (§3.4 commit protocol)
//   app rmdir flow   -> FLOW_MOD delete
//   app writes
//   config.port_down -> PORT_MOD
//   app mkdirs a packet_out/<n> and writes send=1 -> PACKET_OUT
//   switch packet-in -> a pkt_* directory appears in every events/<app>/
//                       buffer (§3.5, concurrent delivery to all apps)
//   switch flow expiry (flow_removed) -> the flow directory disappears
//   stats sync       -> counters/ files refresh from flow/port stats
//
// Multiple drivers — different protocol versions, or an experimental
// protocol — coexist on the same file system; supporting a new protocol
// means writing a new driver, not touching anything above (§4.1).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "yanc/net/channel.hpp"
#include "yanc/netfs/flowio.hpp"
#include "yanc/ofp/codec.hpp"

namespace yanc::driver {

struct DriverOptions {
  ofp::Version version = ofp::Version::of10;
  std::string net_root = "/net";
  /// Prefix for auto-named switch directories ("sw" -> sw1, sw2, ...).
  std::string switch_name_prefix = "sw";
  /// Capacity of the driver's file-system event queue.  When it overflows
  /// (inotify-style), the driver rescans every flows/ directory it owns —
  /// re-arming stale watches and reconciling lost deletions — so small
  /// values exercise that recovery path in tests.
  std::size_t fs_queue_capacity = 1 << 16;

  // Liveness and recovery knobs.  All intervals count poll() calls
  // ("ticks"), not wall time, so behaviour is deterministic under the
  // simulated network.  Defaults are sized well above the settle loops of
  // ordinary tests; fault tests shrink them to exercise recovery quickly.
  /// Idle ticks (no message from the switch) before an echo keepalive.
  std::uint64_t keepalive_interval = 64;
  /// Silent ticks before a switch is declared dead: status=down,
  /// connection closed.  0 disables liveness tracking.
  std::uint64_t keepalive_timeout = 512;
  /// Ticks before an unacknowledged tracked request (flow-commit barrier,
  /// features handshake) is retried.  Doubles per retry.
  std::uint64_t request_timeout = 64;
  /// Retries before the driver gives up on a switch and declares it down.
  std::uint32_t max_retries = 8;
  /// Ticks between flow-table audits (flow-stats reconcile of the FS
  /// against hardware; repairs drift that barriers cannot see, e.g. a
  /// dropped FLOW_MOD whose barrier still got through).  0 disables.
  std::uint64_t audit_interval = 512;

  // Event pipeline knobs (docs/PERFORMANCE.md "Batching").  Per-switch
  // watch shards drain in batches, adjacent same-path modify events
  // coalesce at the shard queue, and a commit burst leaves as one
  // vectored FLOW_MOD train capped by a single barrier.  Mirrored
  // read-only under /yanc/.stats as driver/of/{max_batch,flush_interval}
  // gauges.
  /// Events drained per batch; also the max messages packed per wire
  /// buffer (a longer burst spans several buffers in one vectored send).
  /// 1 seals every FLOW_MOD in a buffer of its own.
  std::size_t max_batch = 256;
  /// Ticks a non-empty egress burst may keep accumulating before it is
  /// flushed.  0 flushes at the end of every poll (lowest latency).
  std::uint64_t flush_interval = 0;

  /// Cluster self-fencing valve (docs/ROBUSTNESS.md "Cluster failover"):
  /// when set, state-mutating egress (FLOW_MOD, PACKET_OUT, PORT_MOD) for
  /// a dpid is suppressed unless the gate returns true — a node that lost
  /// its lease stops talking before the switch-side epoch fence even has
  /// to fire.  Suppressed messages count in driver/of/egress_gated_total;
  /// the takeover resync re-pushes anything dropped here.  Handshake and
  /// read-only traffic always passes.
  std::function<bool(std::uint64_t dpid)> egress_gate;
};

class OfDriver {
 public:
  OfDriver(std::shared_ptr<vfs::Vfs> vfs, DriverOptions options = {});
  ~OfDriver();

  OfDriver(const OfDriver&) = delete;
  OfDriver& operator=(const OfDriver&) = delete;

  /// Switches connect here (the simulated "TCP :6633").
  net::Listener& listener() noexcept { return listener_; }

  /// One scheduling quantum: accept connections, handle switch messages,
  /// apply pending file-system changes.  Returns units of work done.
  std::size_t poll();

  /// Requests flow/port statistics from every connected switch; replies
  /// are mirrored into counters/ files when they arrive (next polls).
  void request_stats();

  /// Sends an EchoRequest carrying a send timestamp to every connected
  /// switch; the reply (echoed verbatim) feeds driver/of/echo_rtt_ns.
  void ping_switches();

  const DriverOptions& options() const noexcept { return options_; }
  std::size_t connected_switches() const;

  /// Name of the switch directory for a datapath id, once connected.
  Result<std::string> switch_name(std::uint64_t dpid) const;

  /// Cluster release valve (docs/ROBUSTNESS.md "Cluster failover"): a
  /// node that lost its lease must stop *speaking for* the switch, not
  /// just stop mutating it — a deposed connection left open keeps
  /// writing keepalive counters and stats mirrors into the replicated
  /// record, fighting the successor's tree forever.  Quietly drops every
  /// connection carrying `dpid`: channel closed, traces released, and no
  /// status=down written (the successor owns the directory now).
  void abandon_switch(std::uint64_t dpid);

 private:
  struct Connection;
  struct PendingRequest;
  struct WatchContext;

  std::size_t accept_new();
  std::size_t pump_connection(Connection& conn);
  std::size_t drain_fs_events();
  /// Shard drain: pops events max_batch at a time, dedups a burst's
  /// commits to one read+push per flow, queues the FLOW_MODs.
  std::size_t drain_shard(Connection& conn);
  /// Non-flow event dispatch (ports, packet out).  Returns false for
  /// flow-commit events, which drain_shard defers to the burst's end.
  bool handle_aux_event(Connection& conn, const vfs::Event& event,
                        const WatchContext& ctx,
                        std::set<vfs::NodeId>& seen_level_triggered);
  /// flows_dir deletion: FLOW_MOD delete (unless suppressed) + teardown.
  void handle_flow_deleted(Connection& conn, const std::string& name);

  void handle_switch_message(Connection& conn, const ofp::Decoded& decoded);
  void on_features(Connection& conn, const ofp::FeaturesReply& features);
  void on_packet_in(Connection& conn, const ofp::PacketIn& pi,
                    std::uint32_t xid);
  void on_port_status(Connection& conn, const ofp::PortStatus& ps);
  void on_flow_removed(Connection& conn, const ofp::FlowRemoved& fr);
  void on_stats_reply(Connection& conn, const ofp::StatsReply& sr,
                      std::uint32_t xid);

  void create_switch_tree(Connection& conn,
                          const std::vector<ofp::PortDesc>& ports);
  void create_port_dir(Connection& conn, const ofp::PortDesc& port);
  void watch_flow(Connection& conn, const std::string& flow_name);
  void push_flow(Connection& conn, const std::string& flow_name,
                 std::uint32_t retries = 0);
  void send_packet_out_dir(Connection& conn, const std::string& name);
  void bump_counter(const std::string& path, std::uint64_t delta = 1);
  /// Encodes and transmits any message but a FLOW_MOD (those go through
  /// send_flow_mod); returns the xid used, or 0 when the message could
  /// not be encoded or the peer is gone (counted in send_fail_total).
  std::uint32_t send(Connection& conn, const ofp::Message& message);
  /// FLOW_MOD egress valve: appends `fm` to the connection's burst,
  /// sealing the current buffer at max_batch.  Every FLOW_MOD goes
  /// through here so deletes and adds of one burst keep their relative
  /// order.
  void send_flow_mod(Connection& conn, const ofp::FlowMod& fm);
  /// Ships the accumulated burst: seals the open buffer, appends one
  /// barrier covering every commit in the train, vectored-sends the
  /// buffers, bumps counters/flow_mods once for the burst, records
  /// driver/of/batch_size, arms the retry timer.
  void flush_egress(Connection& conn);

  // --- failure domains (docs/ROBUSTNESS.md) ---------------------------
  /// Writes status=down + connected=0 for the switch, once, unless a
  /// newer connection for the same dpid has taken over the directory.
  void mark_down(Connection& conn);
  /// Sends the tracked features handshake; arms the retry timer.  Commit
  /// trains are tracked by their barrier in flush_egress.
  void request_features(Connection& conn, std::uint32_t retries);
  /// Keepalives, request timeouts with exponential backoff.
  void service_timers();
  /// Sends each due flow-table audit; runs after the poll's trains are
  /// flushed and skips a switch whose burst flush_interval holds back.
  void send_due_audits();
  /// Handles one expired tracked request on `conn`: re-pushes every flow
  /// the lost train covered (a lost barrier vouches for none of them),
  /// annotating and re-staging any causal traces the train carried.
  void retry_request(Connection& conn, const PendingRequest& request);
  /// Reconciles the FS flow directories against an audit flow-stats
  /// reply: re-pushes committed flows missing from hardware, deletes
  /// hardware entries no FS flow claims.
  void audit_reconcile(Connection& conn, const ofp::StatsReply& sr);
  /// Full flows/ rescan after a watch-queue overflow: re-arms stale
  /// watches, pushes missed commits, reconciles missed deletions.
  void rescan_flows(Connection& conn);
  /// Cluster-failover repair (runs with the audit, only while this
  /// driver holds the egress gate): a takeover handshake that raced a
  /// partition can leave a second /net/switches directory claiming the
  /// same datapath id.  Committed flows the duplicate carries and ours
  /// lacks are re-committed into our tree — no acknowledged write may be
  /// lost — then the duplicate is removed (its tombstone stops
  /// anti-entropy from resurrecting the split identity).
  void absorb_duplicate_dirs(Connection& conn);

  std::shared_ptr<vfs::Vfs> vfs_;
  DriverOptions options_;
  net::Listener listener_;

  /// Handles into the Vfs's obs registry (see docs/OBSERVABILITY.md).
  struct Metrics {
    obs::Counter* msg_in_total;
    obs::Counter* msg_out_total;
    obs::Counter* packet_in_total;
    obs::Counter* packet_out_total;
    obs::Counter* flow_mod_total;
    obs::Counter* send_fail_total;
    obs::Counter* egress_gated_total;
    obs::Counter* keepalive_timeout_total;
    obs::Counter* retry_total;
    obs::Counter* resync_total;
    obs::Counter* audit_total;
    obs::Counter* audit_repair_total;
    obs::Histogram* echo_rtt_ns;
    /// FLOW_MODs per flushed egress train.
    obs::Histogram* batch_size;
    /// Shard-queue handles shared by every per-switch queue: depth shows
    /// the most recently updated shard, the counters sum across shards.
    obs::Gauge* watch_depth;
    obs::Counter* watch_drops;
    obs::Counter* watch_coalesced;
  } metrics_;

  std::vector<std::unique_ptr<Connection>> connections_;
  /// Audits a duplicate-dir removal has been deferred, per directory
  /// (absorb_duplicate_dirs waits for in-flight commit replication).
  std::map<std::string, std::uint32_t> absorb_deferred_;
  // Watched-node -> what that node means (flow version file, flows dir...).
  std::map<vfs::NodeId, WatchContext> watch_contexts_;
  std::uint64_t next_switch_index_ = 1;
  std::uint64_t next_pkt_seq_ = 1;
  /// Poll counter; every liveness/retry deadline is expressed in it.
  std::uint64_t tick_ = 0;
};

}  // namespace yanc::driver
