// Tests for the shell utilities (§5.4), including the paper's two
// flagship one-liners against a real yanc FS.
#include <gtest/gtest.h>

#include "yanc/netfs/handles.hpp"
#include "yanc/netfs/yancfs.hpp"
#include "yanc/obs/trace_fs.hpp"
#include "yanc/shell/coreutils.hpp"

namespace yanc::shell {
namespace {

class ShellTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(netfs::mount_yanc_fs(*vfs).ok());
    netfs::NetDir net(vfs);
    ASSERT_FALSE(net.add_switch("sw1"));
    ASSERT_FALSE(net.add_switch("sw2"));
    flow::FlowSpec ssh;
    ssh.match.tp_dst = 22;
    ssh.actions = {flow::Action::output(2)};
    ASSERT_FALSE(net.switch_at("sw1").add_flow("ssh-fw", ssh));
    flow::FlowSpec web;
    web.match.tp_dst = 80;
    web.actions = {flow::Action::output(3)};
    ASSERT_FALSE(net.switch_at("sw2").add_flow("web", web));
  }
  std::shared_ptr<vfs::Vfs> vfs = std::make_shared<vfs::Vfs>();
};

TEST_F(ShellTest, LsSwitches) {
  // "$ ls -l /net/switches" (§5.4)
  auto out = ls(*vfs, "/net/switches");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "sw1\nsw2\n");
  auto long_out = ls(*vfs, "/net/switches", true);
  ASSERT_TRUE(long_out.ok());
  EXPECT_NE(long_out->find("drwxr-xr-x"), std::string::npos);
}

TEST_F(ShellTest, LsSingleFile) {
  auto out = ls(*vfs, "/net/switches/sw1/id");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "/net/switches/sw1/id\n");
  EXPECT_EQ(ls(*vfs, "/net/nope").error(),
            make_error_code(Errc::not_found));
}

TEST_F(ShellTest, CatAndEcho) {
  ASSERT_FALSE(echo_to(*vfs, "/net/switches/sw1/id", "0x1234"));
  auto out = cat(*vfs, "/net/switches/sw1/id");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "0x1234");
}

TEST_F(ShellTest, TreeShowsHierarchyAndLinks) {
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw1/ports/1"));
  ASSERT_FALSE(vfs->mkdir("/net/switches/sw2/ports/2"));
  ASSERT_FALSE(vfs->symlink("/net/switches/sw2/ports/2",
                            "/net/switches/sw1/ports/1/peer"));
  auto out = tree(*vfs, "/net/switches/sw1/ports");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("└── 1"), std::string::npos);
  EXPECT_NE(out->find("peer -> /net/switches/sw2/ports/2"),
            std::string::npos);
  EXPECT_NE(out->find("counters"), std::string::npos);
}

TEST_F(ShellTest, FindByName) {
  auto hits = find_name(*vfs, "/net", "match.tp_dst");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(*hits, (std::vector<std::string>{
                       "/net/switches/sw1/flows/ssh-fw/match.tp_dst",
                       "/net/switches/sw2/flows/web/match.tp_dst"}));
  // Globbing works on names.
  auto globbed = find_name(*vfs, "/net", "action.*");
  ASSERT_TRUE(globbed.ok());
  EXPECT_EQ(globbed->size(), 2u);
}

TEST_F(ShellTest, GrepFindsContent) {
  auto hits = grep_recursive(*vfs, "/net", "32768");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 2u);  // both flows have default priority files
}

TEST_F(ShellTest, PaperOneLinerSshFlows) {
  // "$ find /net -name tp.dst -exec grep 22" (§5.4)
  auto flows = flows_matching_port(*vfs, "/net", 22);
  ASSERT_TRUE(flows.ok());
  ASSERT_EQ(flows->size(), 1u);
  EXPECT_EQ((*flows)[0], "/net/switches/sw1/flows/ssh-fw");
  // Port 443: nothing.
  EXPECT_TRUE(flows_matching_port(*vfs, "/net", 443)->empty());
}

TEST_F(ShellTest, CpCopiesTreesAndMvRenames) {
  // §7.2's elastic middlebox story relies on cp/mv of state subtrees.
  ASSERT_FALSE(vfs->mkdir("/net/middleboxes/ids1"));
  ASSERT_FALSE(vfs->write_file("/net/middleboxes/ids1/state/sig-a", "A"));
  ASSERT_FALSE(vfs->write_file("/net/middleboxes/ids1/state/sig-b", "B"));
  ASSERT_FALSE(vfs->mkdir("/net/middleboxes/ids2"));
  // Replicate the whole signature state to the new instance.
  ASSERT_FALSE(cp(*vfs, "/net/middleboxes/ids1/state",
                  "/net/middleboxes/ids2/state"));
  EXPECT_EQ(*cat(*vfs, "/net/middleboxes/ids2/state/sig-a"), "A");
  EXPECT_EQ(*cat(*vfs, "/net/middleboxes/ids2/state/sig-b"), "B");
  // Source unchanged (cp, not mv).
  EXPECT_EQ(vfs->readdir("/net/middleboxes/ids1/state")->size(), 2u);
  // mv renames.
  ASSERT_FALSE(mv(*vfs, "/net/middleboxes/ids2/state/sig-b",
                  "/net/middleboxes/ids2/state/sig-b2"));
  EXPECT_FALSE(vfs->stat("/net/middleboxes/ids2/state/sig-b").ok());
  EXPECT_EQ(*cat(*vfs, "/net/middleboxes/ids2/state/sig-b2"), "B");
  // cp of a missing source reports the error.
  EXPECT_EQ(cp(*vfs, "/net/nope", "/net/middleboxes/ids2/state/x"),
            make_error_code(Errc::not_found));
}

TEST_F(ShellTest, TraceShowReadsCapturedTraces) {
  // `yancsh trace <id|filter>` over a mounted /yanc/.trace subtree.
  obs::Tracer tracer;
  tracer.start();
  auto root =
      tracer.mint("netfs", "write_flow", "/net/switches/sw1/flows/dns");
  ASSERT_TRUE(bool(root));
  std::uint64_t t0 = obs::Tracer::now_ns();
  (void)tracer.child(root, "driver", "commit", t0, t0 + 1000, 250);
  ASSERT_FALSE(vfs->mkdir_p("/yanc/.trace", 0555, vfs::Credentials::root()));
  ASSERT_FALSE(vfs->mount("/yanc/.trace", obs::make_trace_fs(tracer)));

  // A captured trace id resolves directly to its span tree.
  auto by_id = trace_show(*vfs, std::to_string(root.trace_id));
  ASSERT_TRUE(by_id.ok());
  EXPECT_NE(by_id->find("netfs/write_flow"), std::string::npos);
  EXPECT_NE(by_id->find("driver/commit"), std::string::npos);

  // A non-id argument filters by content: the flow path rode in on the
  // ingress note, so it selects the same trace.
  auto filtered = trace_show(*vfs, "/net/switches/sw1/flows/dns");
  ASSERT_TRUE(filtered.ok());
  EXPECT_NE(filtered->find("driver/commit"), std::string::npos);

  EXPECT_EQ(trace_show(*vfs, "no-such-thing").error(),
            make_error_code(Errc::not_found));
}

TEST_F(ShellTest, PermissionsRespected) {
  ASSERT_FALSE(vfs->chmod("/net/switches/sw1/id", 0600));
  ASSERT_FALSE(vfs->chown("/net/switches/sw1/id", 0, 0));
  auto denied = cat(*vfs, "/net/switches/sw1/id",
                    vfs::Credentials::user(1000, 1000));
  EXPECT_EQ(denied.error(), make_error_code(Errc::access_denied));
}

}  // namespace
}  // namespace yanc::shell
