// Per-switch MAC learning (the classic first SDN app): on a table miss,
// learn the source MAC's port; when the destination is known, install a
// forwarding flow and release the packet; otherwise flood.
// Demonstrates the paper's multi-application story: it coexists with the
// router/ARP daemons because each has its own private events/ buffer.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "yanc/netfs/handles.hpp"

namespace yanc::apps {

struct LearningSwitchOptions {
  std::string net_root = "/net";
  std::string app_name = "l2switch";
  std::uint16_t flow_idle_timeout = 60;
  std::uint16_t flow_priority = 50;
};

class LearningSwitch {
 public:
  LearningSwitch(std::shared_ptr<vfs::Vfs> vfs,
                 LearningSwitchOptions options = {});

  Result<std::size_t> poll();

  std::uint64_t flows_installed() const noexcept { return installed_; }
  std::uint64_t floods() const noexcept { return floods_; }
  /// Learned (switch -> mac -> port) table size.
  std::size_t table_size() const;

 private:
  std::shared_ptr<vfs::Vfs> vfs_;
  LearningSwitchOptions options_;
  std::optional<netfs::EventBufferHandle> events_;
  std::map<std::string, std::map<std::uint64_t, std::uint16_t>> tables_;
  std::uint64_t next_out_ = 1;
  std::uint64_t next_flow_ = 1;
  std::uint64_t installed_ = 0;
  std::uint64_t floods_ = 0;
};

}  // namespace yanc::apps
