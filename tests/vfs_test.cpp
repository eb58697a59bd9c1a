// Tests for the VFS substrate: MemFs POSIX semantics, ACLs, watches, the
// mount/resolution layer, namespaces, and file handles.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <random>
#include <thread>

#include "yanc/obs/metrics.hpp"
#include "yanc/obs/tracer.hpp"
#include "yanc/util/strings.hpp"
#include "yanc/vfs/memfs.hpp"
#include "yanc/vfs/synth_fs.hpp"
#include "yanc/vfs/vfs.hpp"

namespace yanc::vfs {
namespace {

Credentials alice() { return Credentials::user(1000, 100); }
Credentials bob() { return Credentials::user(1001, 100); }
Credentials carol() {
  Credentials c = Credentials::user(1002, 200);
  c.groups = {300};
  return c;
}

std::error_code err(Errc e) { return make_error_code(e); }

// --- MemFs basics ----------------------------------------------------------

class MemFsTest : public ::testing::Test {
 protected:
  // Tests exercise non-root identities directly in "/", so make it
  // world-writable (like /tmp without the sticky bit).
  void SetUp() override { ASSERT_FALSE(fs.chmod(fs.root(), 0777, root)); }
  MemFs fs;
  Credentials root = Credentials::root();
};

TEST_F(MemFsTest, RootExists) {
  auto st = fs.getattr(fs.root());
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(st->is_dir());
  EXPECT_EQ(st->nlink, 2u);
}

TEST_F(MemFsTest, CreateLookupReadWrite) {
  auto file = fs.create(fs.root(), "hello", 0644, root);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(*fs.lookup(fs.root(), "hello"), *file);

  auto n = fs.write(*file, 0, "world", root);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 5u);
  EXPECT_EQ(*fs.read(*file, 0, 100, root), "world");
  EXPECT_EQ(*fs.read(*file, 2, 2, root), "rl");
  EXPECT_EQ(*fs.read(*file, 10, 5, root), "");  // past EOF
}

TEST_F(MemFsTest, SparseWriteZeroFills) {
  auto file = fs.create(fs.root(), "sparse", 0644, root);
  ASSERT_TRUE(fs.write(*file, 4, "x", root).ok());
  auto data = fs.read(*file, 0, 100, root);
  EXPECT_EQ(*data, std::string("\0\0\0\0x", 5));
}

TEST_F(MemFsTest, DuplicateCreateFails) {
  ASSERT_TRUE(fs.create(fs.root(), "a", 0644, root).ok());
  EXPECT_EQ(fs.create(fs.root(), "a", 0644, root).error(), err(Errc::exists));
  EXPECT_EQ(fs.mkdir(fs.root(), "a", 0755, root).error(), err(Errc::exists));
}

TEST_F(MemFsTest, InvalidNamesRejected) {
  EXPECT_EQ(fs.create(fs.root(), "", 0644, root).error(),
            err(Errc::invalid_argument));
  EXPECT_EQ(fs.create(fs.root(), ".", 0644, root).error(),
            err(Errc::invalid_argument));
  EXPECT_EQ(fs.create(fs.root(), "..", 0644, root).error(),
            err(Errc::invalid_argument));
  EXPECT_EQ(fs.create(fs.root(), "a/b", 0644, root).error(),
            err(Errc::invalid_argument));
  EXPECT_EQ(fs.create(fs.root(), std::string(300, 'x'), 0644, root).error(),
            err(Errc::name_too_long));
}

TEST_F(MemFsTest, MkdirNlinkAccounting) {
  auto dir = fs.mkdir(fs.root(), "d", 0755, root);
  ASSERT_TRUE(dir.ok());
  EXPECT_EQ(fs.getattr(fs.root())->nlink, 3u);  // root, root/., d/..
  auto sub = fs.mkdir(*dir, "sub", 0755, root);
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(fs.getattr(*dir)->nlink, 3u);
  ASSERT_FALSE(fs.rmdir(*dir, "sub", root));
  EXPECT_EQ(fs.getattr(*dir)->nlink, 2u);
}

TEST_F(MemFsTest, ReaddirSorted) {
  ASSERT_TRUE(fs.create(fs.root(), "b", 0644, root).ok());
  ASSERT_TRUE(fs.create(fs.root(), "a", 0644, root).ok());
  ASSERT_TRUE(fs.mkdir(fs.root(), "c", 0755, root).ok());
  auto entries = fs.readdir(fs.root());
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 3u);
  EXPECT_EQ((*entries)[0].name, "a");
  EXPECT_EQ((*entries)[1].name, "b");
  EXPECT_EQ((*entries)[2].name, "c");
  EXPECT_EQ((*entries)[2].type, FileType::directory);
}

TEST_F(MemFsTest, ReaddirOnFileFails) {
  auto f = fs.create(fs.root(), "f", 0644, root);
  EXPECT_EQ(fs.readdir(*f).error(), err(Errc::not_dir));
  EXPECT_EQ(fs.lookup(*f, "x").error(), err(Errc::not_dir));
}

TEST_F(MemFsTest, UnlinkFrees) {
  auto f = fs.create(fs.root(), "f", 0644, root);
  ASSERT_TRUE(fs.write(*f, 0, "data", root).ok());
  EXPECT_EQ(fs.bytes_used(), 4u);
  ASSERT_FALSE(fs.unlink(fs.root(), "f", root));
  EXPECT_EQ(fs.bytes_used(), 0u);
  EXPECT_EQ(fs.getattr(*f).error(), err(Errc::not_found));
  EXPECT_EQ(fs.unlink(fs.root(), "f", root), err(Errc::not_found));
}

TEST_F(MemFsTest, UnlinkDirectoryFails) {
  ASSERT_TRUE(fs.mkdir(fs.root(), "d", 0755, root).ok());
  EXPECT_EQ(fs.unlink(fs.root(), "d", root), err(Errc::is_dir));
}

TEST_F(MemFsTest, RmdirNonEmptyFails) {
  auto d = fs.mkdir(fs.root(), "d", 0755, root);
  ASSERT_TRUE(fs.create(*d, "f", 0644, root).ok());
  EXPECT_EQ(fs.rmdir(fs.root(), "d", root), err(Errc::not_empty));
  ASSERT_FALSE(fs.unlink(*d, "f", root));
  EXPECT_FALSE(fs.rmdir(fs.root(), "d", root));
}

TEST_F(MemFsTest, HardLinks) {
  auto f = fs.create(fs.root(), "f", 0644, root);
  auto d = fs.mkdir(fs.root(), "d", 0755, root);
  ASSERT_FALSE(fs.link(*f, *d, "f2", root));
  EXPECT_EQ(fs.getattr(*f)->nlink, 2u);
  ASSERT_TRUE(fs.write(*f, 0, "shared", root).ok());
  EXPECT_EQ(*fs.read(*fs.lookup(*d, "f2"), 0, 100, root), "shared");
  // Unlinking one name keeps the inode alive.
  ASSERT_FALSE(fs.unlink(fs.root(), "f", root));
  EXPECT_EQ(fs.getattr(*f)->nlink, 1u);
  EXPECT_EQ(*fs.read(*f, 0, 100, root), "shared");
  // Hard links to directories are forbidden.
  EXPECT_EQ(fs.link(*d, fs.root(), "d2", root), err(Errc::not_permitted));
}

TEST_F(MemFsTest, SymlinkReadlink) {
  auto link = fs.symlink(fs.root(), "l", "/target/path", root);
  ASSERT_TRUE(link.ok());
  EXPECT_EQ(*fs.readlink(*link), "/target/path");
  EXPECT_TRUE(fs.getattr(*link)->is_symlink());
  auto f = fs.create(fs.root(), "f", 0644, root);
  EXPECT_EQ(fs.readlink(*f).error(), err(Errc::invalid_argument));
}

TEST_F(MemFsTest, RenameBasic) {
  auto f = fs.create(fs.root(), "a", 0644, root);
  ASSERT_TRUE(fs.write(*f, 0, "x", root).ok());
  ASSERT_FALSE(fs.rename(fs.root(), "a", fs.root(), "b", root));
  EXPECT_EQ(fs.lookup(fs.root(), "a").error(), err(Errc::not_found));
  EXPECT_EQ(*fs.lookup(fs.root(), "b"), *f);
}

TEST_F(MemFsTest, RenameReplacesFile) {
  auto a = fs.create(fs.root(), "a", 0644, root);
  auto b = fs.create(fs.root(), "b", 0644, root);
  ASSERT_TRUE(fs.write(*b, 0, "old", root).ok());
  ASSERT_FALSE(fs.rename(fs.root(), "a", fs.root(), "b", root));
  EXPECT_EQ(*fs.lookup(fs.root(), "b"), *a);
  EXPECT_EQ(fs.getattr(*b).error(), err(Errc::not_found));
}

TEST_F(MemFsTest, RenameDirOverNonEmptyDirFails) {
  auto a = fs.mkdir(fs.root(), "a", 0755, root);
  auto b = fs.mkdir(fs.root(), "b", 0755, root);
  ASSERT_TRUE(fs.create(*b, "f", 0644, root).ok());
  EXPECT_EQ(fs.rename(fs.root(), "a", fs.root(), "b", root),
            err(Errc::not_empty));
  ASSERT_FALSE(fs.unlink(*b, "f", root));
  EXPECT_FALSE(fs.rename(fs.root(), "a", fs.root(), "b", root));
  EXPECT_EQ(*fs.lookup(fs.root(), "b"), *a);
}

TEST_F(MemFsTest, RenameTypeMismatch) {
  ASSERT_TRUE(fs.mkdir(fs.root(), "d", 0755, root).ok());
  ASSERT_TRUE(fs.create(fs.root(), "f", 0644, root).ok());
  EXPECT_EQ(fs.rename(fs.root(), "d", fs.root(), "f", root),
            err(Errc::not_dir));
  EXPECT_EQ(fs.rename(fs.root(), "f", fs.root(), "d", root),
            err(Errc::is_dir));
}

TEST_F(MemFsTest, RenameIntoOwnSubtreeFails) {
  auto a = fs.mkdir(fs.root(), "a", 0755, root);
  auto b = fs.mkdir(*a, "b", 0755, root);
  EXPECT_EQ(fs.rename(fs.root(), "a", *b, "a2", root),
            err(Errc::invalid_argument));
}

TEST_F(MemFsTest, RenameNoopSamePath) {
  ASSERT_TRUE(fs.create(fs.root(), "a", 0644, root).ok());
  EXPECT_FALSE(fs.rename(fs.root(), "a", fs.root(), "a", root));
}

TEST_F(MemFsTest, TruncateGrowsAndShrinks) {
  auto f = fs.create(fs.root(), "f", 0644, root);
  ASSERT_TRUE(fs.write(*f, 0, "abcdef", root).ok());
  ASSERT_FALSE(fs.truncate(*f, 3, root));
  EXPECT_EQ(*fs.read(*f, 0, 100, root), "abc");
  ASSERT_FALSE(fs.truncate(*f, 5, root));
  EXPECT_EQ(*fs.read(*f, 0, 100, root), std::string("abc\0\0", 5));
  EXPECT_EQ(fs.bytes_used(), 5u);
}

TEST_F(MemFsTest, VersionBumpsOnChange) {
  auto f = fs.create(fs.root(), "f", 0644, root);
  auto v0 = fs.getattr(*f)->version;
  ASSERT_TRUE(fs.write(*f, 0, "x", root).ok());
  auto v1 = fs.getattr(*f)->version;
  EXPECT_GT(v1, v0);
  ASSERT_FALSE(fs.chmod(*f, 0600, root));
  EXPECT_GT(fs.getattr(*f)->version, v1);
}

// --- permissions -------------------------------------------------------------

TEST_F(MemFsTest, OwnerGroupOtherBits) {
  auto f = fs.create(fs.root(), "f", 0640, alice());
  ASSERT_TRUE(f.ok());
  // Owner: read+write.
  EXPECT_FALSE(fs.access(*f, 6, alice()));
  // Same group (bob gid=100): read only.
  EXPECT_FALSE(fs.access(*f, 4, bob()));
  EXPECT_EQ(fs.access(*f, 2, bob()), err(Errc::access_denied));
  // Other (carol): nothing.
  EXPECT_EQ(fs.access(*f, 4, carol()), err(Errc::access_denied));
  // Root bypasses.
  EXPECT_FALSE(fs.access(*f, 7, root));
}

TEST_F(MemFsTest, SupplementaryGroups) {
  auto f = fs.create(fs.root(), "f", 0040, Credentials{1000, 300, {}});
  // carol has supplementary group 300.
  EXPECT_FALSE(fs.access(*f, 4, carol()));
  EXPECT_EQ(fs.access(*f, 4, bob()), err(Errc::access_denied));
}

TEST_F(MemFsTest, WriteDeniedWithoutPermission) {
  auto f = fs.create(fs.root(), "f", 0444, alice());
  EXPECT_EQ(fs.write(*f, 0, "x", bob()).error(), err(Errc::access_denied));
  EXPECT_EQ(fs.truncate(*f, 0, bob()), err(Errc::access_denied));
  // Even the owner respects mode bits (no write bit set).
  EXPECT_EQ(fs.write(*f, 0, "x", alice()).error(), err(Errc::access_denied));
}

TEST_F(MemFsTest, CreateRequiresParentWrite) {
  auto dir = fs.mkdir(fs.root(), "d", 0555, alice());
  EXPECT_EQ(fs.create(*dir, "f", 0644, alice()).error(),
            err(Errc::access_denied));
  EXPECT_EQ(fs.mkdir(*dir, "sub", 0755, bob()).error(),
            err(Errc::access_denied));
}

TEST_F(MemFsTest, ChmodOnlyOwnerOrRoot) {
  auto f = fs.create(fs.root(), "f", 0644, alice());
  EXPECT_EQ(fs.chmod(*f, 0600, bob()), err(Errc::not_permitted));
  EXPECT_FALSE(fs.chmod(*f, 0600, alice()));
  EXPECT_EQ(fs.getattr(*f)->mode, 0600u);
  EXPECT_FALSE(fs.chmod(*f, 0644, root));
}

TEST_F(MemFsTest, ChownRules) {
  auto f = fs.create(fs.root(), "f", 0644, alice());
  // Non-root cannot give the file away.
  EXPECT_EQ(fs.chown(*f, 1001, 100, alice()), err(Errc::not_permitted));
  // Owner may change group to one of their groups.
  Credentials alice_with_group = alice();
  alice_with_group.groups = {250};
  EXPECT_FALSE(fs.chown(*f, 1000, 250, alice_with_group));
  EXPECT_EQ(fs.getattr(*f)->gid, 250u);
  // Root can do anything.
  EXPECT_FALSE(fs.chown(*f, 1, 2, root));
}

TEST_F(MemFsTest, StickyDirectoryDeletion) {
  auto shared = fs.mkdir(fs.root(), "tmp", 01777, root);
  auto f = fs.create(*shared, "af", 0644, alice());
  ASSERT_TRUE(f.ok());
  // bob cannot delete alice's file from a sticky dir.
  EXPECT_EQ(fs.unlink(*shared, "af", bob()), err(Errc::not_permitted));
  // alice (file owner) can.
  EXPECT_FALSE(fs.unlink(*shared, "af", alice()));
}

// --- ACLs -----------------------------------------------------------------

TEST(AclTest, FromModeMatchesModeBits) {
  Acl acl = Acl::from_mode(0640);
  EXPECT_FALSE(acl.validate());
  EXPECT_TRUE(acl.permits(Credentials::user(10, 20), 10, 20, 6));
  EXPECT_TRUE(acl.permits(Credentials::user(11, 20), 10, 20, 4));
  EXPECT_FALSE(acl.permits(Credentials::user(11, 20), 10, 20, 2));
  EXPECT_FALSE(acl.permits(Credentials::user(11, 21), 10, 20, 4));
}

TEST(AclTest, NamedUserEntryWithMask) {
  auto acl = Acl::parse_text("user::rw-,group::r--,other::---,"
                             "user:1000:rw-,mask::r--");
  ASSERT_TRUE(acl.ok());
  // Named user is capped by the mask: rw- & r-- = r--.
  EXPECT_TRUE(acl->permits(Credentials::user(1000, 5), 1, 2, 4));
  EXPECT_FALSE(acl->permits(Credentials::user(1000, 5), 1, 2, 2));
}

TEST(AclTest, GroupEntriesAnyMatchGrants) {
  auto acl = Acl::parse_text("user::rwx,group::---,other::---,"
                             "group:300:rw-,mask::rwx");
  ASSERT_TRUE(acl.ok());
  Credentials c = Credentials::user(50, 200);
  c.groups = {300};
  EXPECT_TRUE(acl->permits(c, 1, 200, 6));
  // Group matched (group_obj with ---), so "other" is NOT consulted.
  auto acl2 = Acl::parse_text("user::rwx,group::---,other::rwx");
  ASSERT_TRUE(acl2.ok());
  EXPECT_FALSE(acl2->permits(Credentials::user(50, 7), 1, 7, 4));
}

TEST(AclTest, ValidationRules) {
  EXPECT_TRUE(Acl::parse_text("user::rw-").error());  // missing entries
  EXPECT_TRUE(
      Acl::parse_text("user::rw-,group::r--,other::r--,user:5:rw-").error());
  EXPECT_FALSE(Acl::parse_text(
      "user::rw-,group::r--,other::r--,user:5:rw-,mask::rw-").error());
  EXPECT_TRUE(Acl::parse_text("bogus::rw-").error());
  EXPECT_TRUE(Acl::parse_text("user::rwz").error());
}

TEST(AclTest, EncodeDecodeRoundTrip) {
  auto acl = *Acl::parse_text("user::rwx,group::r-x,other::--x,"
                              "user:42:rw-,mask::rwx");
  auto decoded = Acl::decode(acl.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, acl);
  EXPECT_EQ(decoded->to_text(), acl.to_text());
  EXPECT_TRUE(Acl::decode({9, 9, 9}).error());
}

TEST_F(MemFsTest, AclOverridesModeBits) {
  auto f = fs.create(fs.root(), "f", 0600, alice());
  Acl acl = Acl::from_mode(0600);
  acl.add({AclTag::user, 1001, 6});  // grant bob rw
  acl.add({AclTag::mask, 0, 7});
  ASSERT_FALSE(fs.setxattr(*f, kAclXattr, acl.encode(), alice()));
  EXPECT_FALSE(fs.access(*f, 6, bob()));
  EXPECT_EQ(fs.access(*f, 4, carol()), err(Errc::access_denied));
  // Removing the ACL restores plain mode checks.
  ASSERT_FALSE(fs.removexattr(*f, kAclXattr, alice()));
  EXPECT_EQ(fs.access(*f, 4, bob()), err(Errc::access_denied));
}

TEST_F(MemFsTest, InvalidAclRejected) {
  auto f = fs.create(fs.root(), "f", 0600, alice());
  EXPECT_EQ(fs.setxattr(*f, kAclXattr, {1, 2, 3}, alice()),
            err(Errc::invalid_argument));
}

// --- xattrs ------------------------------------------------------------------

TEST_F(MemFsTest, XattrCrud) {
  auto f = fs.create(fs.root(), "f", 0644, alice());
  ASSERT_FALSE(fs.setxattr(*f, "user.consistency", {'e', 'v'}, alice()));
  ASSERT_FALSE(fs.setxattr(*f, "user.note", {'x'}, alice()));
  auto v = fs.getxattr(*f, "user.consistency");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, (std::vector<std::uint8_t>{'e', 'v'}));
  auto names = fs.listxattr(*f);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 2u);
  ASSERT_FALSE(fs.removexattr(*f, "user.note", alice()));
  EXPECT_EQ(fs.getxattr(*f, "user.note").error(), err(Errc::not_found));
}

TEST_F(MemFsTest, SystemXattrNeedsOwnership) {
  auto f = fs.create(fs.root(), "f", 0666, alice());
  EXPECT_EQ(fs.setxattr(*f, "system.thing", {1}, bob()),
            err(Errc::not_permitted));
  EXPECT_FALSE(fs.setxattr(*f, "user.thing", {1}, bob()));  // has write perm
}

// --- quotas -------------------------------------------------------------------

TEST(MemFsQuota, InodeLimit) {
  MemFs fs(MemFsOptions{.max_inodes = 3});  // root + 2
  Credentials root;
  ASSERT_TRUE(fs.create(fs.root(), "a", 0644, root).ok());
  ASSERT_TRUE(fs.create(fs.root(), "b", 0644, root).ok());
  EXPECT_EQ(fs.create(fs.root(), "c", 0644, root).error(),
            err(Errc::no_space));
  // Deleting frees quota.
  ASSERT_FALSE(fs.unlink(fs.root(), "a", root));
  EXPECT_TRUE(fs.create(fs.root(), "c", 0644, root).ok());
}

TEST(MemFsQuota, ByteLimit) {
  MemFs fs(MemFsOptions{.max_bytes = 10});
  Credentials root;
  auto f = fs.create(fs.root(), "f", 0644, root);
  ASSERT_TRUE(fs.write(*f, 0, "0123456789", root).ok());
  EXPECT_EQ(fs.write(*f, 10, "x", root).error(), err(Errc::no_space));
  // Overwrite in place is fine.
  EXPECT_TRUE(fs.write(*f, 0, "abc", root).ok());
}

// --- watches ------------------------------------------------------------------

TEST_F(MemFsTest, WatchCreateDelete) {
  auto q = std::make_shared<WatchQueue>();
  ASSERT_TRUE(fs.watch(fs.root(), event::created | event::deleted, q).ok());
  ASSERT_TRUE(fs.create(fs.root(), "f", 0644, root).ok());
  ASSERT_FALSE(fs.unlink(fs.root(), "f", root));
  auto e1 = q->try_pop();
  ASSERT_TRUE(e1.has_value());
  EXPECT_TRUE(e1->is(event::created));
  EXPECT_EQ(e1->name, "f");
  auto e2 = q->try_pop();
  ASSERT_TRUE(e2.has_value());
  EXPECT_TRUE(e2->is(event::deleted));
  EXPECT_FALSE(q->try_pop().has_value());
}

TEST_F(MemFsTest, WatchMaskFilters) {
  auto q = std::make_shared<WatchQueue>();
  ASSERT_TRUE(fs.watch(fs.root(), event::deleted, q).ok());
  ASSERT_TRUE(fs.create(fs.root(), "f", 0644, root).ok());  // not delivered
  EXPECT_FALSE(q->try_pop().has_value());
}

TEST_F(MemFsTest, WatchModifyOnFileAndParent) {
  auto f = fs.create(fs.root(), "f", 0644, root);
  auto qf = std::make_shared<WatchQueue>();
  auto qd = std::make_shared<WatchQueue>();
  ASSERT_TRUE(fs.watch(*f, event::modified, qf).ok());
  ASSERT_TRUE(fs.watch(fs.root(), event::modified, qd).ok());
  ASSERT_TRUE(fs.write(*f, 0, "x", root).ok());
  auto ef = qf->try_pop();
  ASSERT_TRUE(ef.has_value());
  EXPECT_TRUE(ef->name.empty());
  auto ed = qd->try_pop();
  ASSERT_TRUE(ed.has_value());
  EXPECT_EQ(ed->name, "f");  // directory watch names the child
}

TEST_F(MemFsTest, RenameEmitsPairedCookies) {
  auto d1 = fs.mkdir(fs.root(), "d1", 0755, root);
  auto d2 = fs.mkdir(fs.root(), "d2", 0755, root);
  ASSERT_TRUE(fs.create(*d1, "f", 0644, root).ok());
  auto q1 = std::make_shared<WatchQueue>();
  auto q2 = std::make_shared<WatchQueue>();
  ASSERT_TRUE(fs.watch(*d1, event::all, q1).ok());
  ASSERT_TRUE(fs.watch(*d2, event::all, q2).ok());
  ASSERT_FALSE(fs.rename(*d1, "f", *d2, "g", root));
  auto from = q1->try_pop();
  auto to = q2->try_pop();
  ASSERT_TRUE(from.has_value());
  ASSERT_TRUE(to.has_value());
  EXPECT_TRUE(from->is(event::moved_from));
  EXPECT_TRUE(to->is(event::moved_to));
  EXPECT_EQ(from->cookie, to->cookie);
  EXPECT_NE(from->cookie, 0u);
  EXPECT_EQ(from->name, "f");
  EXPECT_EQ(to->name, "g");
}

TEST_F(MemFsTest, DeleteSelfOnWatchedNode) {
  auto f = fs.create(fs.root(), "f", 0644, root);
  auto q = std::make_shared<WatchQueue>();
  ASSERT_TRUE(fs.watch(*f, event::delete_self, q).ok());
  ASSERT_FALSE(fs.unlink(fs.root(), "f", root));
  auto e = q->try_pop();
  ASSERT_TRUE(e.has_value());
  EXPECT_TRUE(e->is(event::delete_self));
}

// A mutation queues events only for the watches its node has when it runs.
TEST_F(MemFsTest, WatchAddedAfterAMutationGetsNothingFromIt) {
  auto early = std::make_shared<WatchQueue>();
  ASSERT_TRUE(fs.watch(fs.root(), event::all, early).ok());
  auto f = fs.create(fs.root(), "f", 0644, root);
  ASSERT_TRUE(f.ok());
  auto late = std::make_shared<WatchQueue>();
  ASSERT_TRUE(fs.watch(fs.root(), event::all, late).ok());
  EXPECT_EQ(early->size(), 1u);
  EXPECT_FALSE(late->try_pop().has_value());

  // The same for a node nobody watched during the write.
  ASSERT_TRUE(fs.write(*f, 0, "x", root).ok());
  auto on_file = std::make_shared<WatchQueue>();
  ASSERT_TRUE(fs.watch(*f, event::all, on_file).ok());
  EXPECT_FALSE(on_file->try_pop().has_value());
  // Later mutations reach every watch.
  ASSERT_TRUE(fs.write(*f, 0, "y", root).ok());
  EXPECT_TRUE(on_file->try_pop().has_value());
  EXPECT_TRUE(late->try_pop().has_value());
}

// Unwatching a removed node's watch lowers no other node's watch count.
TEST_F(MemFsTest, WatchOfRemovedNodeDroppedLateLeavesOtherNodesWatched) {
  auto gone = fs.create(fs.root(), "gone", 0644, root);
  auto kept = fs.create(fs.root(), "kept", 0644, root);
  ASSERT_TRUE(gone.ok() && kept.ok());
  auto q = std::make_shared<WatchQueue>();
  auto on_gone = fs.watch(*gone, event::all, q);
  auto first = fs.watch(*kept, event::modified, q);
  auto second = fs.watch(*kept, event::modified, q);
  ASSERT_TRUE(on_gone.ok() && first.ok() && second.ok());
  ASSERT_FALSE(fs.unlink(fs.root(), "gone", root));
  (void)q->drain();
  fs.unwatch(*on_gone);  // after its node went
  fs.unwatch(*first);
  ASSERT_TRUE(fs.write(*kept, 0, "x", root).ok());
  auto e = q->try_pop();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->node, *kept);
  EXPECT_FALSE(q->try_pop().has_value());  // one watch left, one event
  fs.unwatch(*second);
  ASSERT_TRUE(fs.write(*kept, 0, "y", root).ok());
  EXPECT_FALSE(q->try_pop().has_value());
}

TEST(WatchQueueTest, OverflowCollapsesTail) {
  WatchQueue q(2);
  q.push({event::created, 1, "a", 0});
  q.push({event::created, 1, "b", 0});
  q.push({event::created, 1, "c", 0});  // overflow marker
  q.push({event::created, 1, "d", 0});  // dropped silently
  EXPECT_EQ(q.size(), 3u);
  EXPECT_TRUE(q.overflowed());
  q.drain();
  EXPECT_FALSE(q.overflowed());
  q.push({event::created, 1, "e", 0});
  EXPECT_EQ(q.size(), 1u);
}

TEST(WatchQueueTest, PopWaitTimesOut) {
  WatchQueue q;
  EXPECT_FALSE(q.pop_wait(std::chrono::milliseconds(5)).has_value());
  q.push({event::created, 1, "a", 0});
  EXPECT_TRUE(q.pop_wait(std::chrono::milliseconds(5)).has_value());
}

TEST(WatchQueueTest, TryPopBatchDrainsInOrder) {
  WatchQueue q;
  q.push({event::created, 1, "a", 0});
  q.push({event::modified, 1, "a", 0});
  q.push({event::deleted, 1, "a", 0});
  std::vector<Event> out;
  EXPECT_EQ(q.try_pop_batch(out, 2), 2u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[0].is(event::created));
  EXPECT_TRUE(out[1].is(event::modified));
  out.clear();
  EXPECT_EQ(q.try_pop_batch(out, 10), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].is(event::deleted));
  out.clear();
  EXPECT_EQ(q.try_pop_batch(out, 10), 0u);
}

TEST(WatchQueueTest, PopWaitBatchTimesOutThenDrains) {
  WatchQueue q;
  EXPECT_TRUE(q.pop_wait_batch(4, std::chrono::milliseconds(5)).empty());
  q.push({event::created, 1, "a", 0});
  q.push({event::created, 1, "b", 0});
  q.push({event::created, 1, "c", 0});
  auto got = q.pop_wait_batch(2, std::chrono::milliseconds(5));
  ASSERT_EQ(got.size(), 2u);  // capped at max, front first
  EXPECT_EQ(got[0].name, "a");
  EXPECT_EQ(got[1].name, "b");
  got = q.pop_wait_batch(2, std::chrono::milliseconds(5));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].name, "c");
}

TEST(WatchQueueTest, CoalescingMergesOnlyAdjacentSamePathModify) {
  WatchQueue q;
  q.set_coalescing(true);
  obs::Registry registry;
  auto* coalesced = registry.counter("q/coalesced");
  q.bind_metrics(registry.gauge("q/depth"), registry.counter("q/drops"),
                 coalesced);
  q.push({event::modified, 1, "v", 0});
  q.push({event::modified, 1, "v", 0});  // tail duplicate: merged
  q.push({event::modified, 1, "v", 0});  // merged again
  q.push({event::modified, 2, "v", 0});  // different node: kept
  q.push({event::modified, 1, "v", 0});  // no longer adjacent: kept
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(coalesced->value(), 2u);
}

TEST(WatchQueueTest, CoalescingNeverCrossesTerminalOrMixedEvents) {
  WatchQueue q;
  q.set_coalescing(true);
  // A modify after a terminal event on the same path must survive: it
  // announces the *new* incarnation's state.
  q.push({event::modified, 1, "v", 0});
  q.push({event::deleted, 1, "v", 0});
  q.push({event::modified, 1, "v", 0});
  EXPECT_EQ(q.size(), 3u);
  // Mixed-mask events never merge even when adjacent and same-path.
  WatchQueue q2;
  q2.set_coalescing(true);
  q2.push({event::created, 1, "v", 0});
  q2.push({event::modified, 1, "v", 0});
  EXPECT_EQ(q2.size(), 2u);
}

TEST(WatchQueueTest, CoalescingMergesAbsorbedTraceRefs) {
  WatchQueue q;
  q.set_coalescing(true);
  auto traced = [](std::uint64_t span, std::uint64_t ts) {
    Event e{event::modified, 1, "v", 0};
    e.trace.push_back(obs::TraceRef{7, span});
    e.trace_ts_ns = ts;
    return e;
  };
  q.push(traced(10, 500));
  q.push(traced(11, 900));  // merged into the tail: ref absorbed
  Event untraced{event::modified, 1, "v", 0};
  q.push(untraced);         // merged; nothing to absorb
  auto got = q.try_pop();
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->trace.size(), 2u);
  EXPECT_EQ(got->trace[0].span_id, 10u);
  EXPECT_EQ(got->trace[1].span_id, 11u);
  // Queue-wait is measured from the OLDEST absorbed work.
  EXPECT_EQ(got->trace_ts_ns, 500u);
  EXPECT_FALSE(q.try_pop().has_value());

  // The absorbed-ref list is bounded: a hot path cannot grow one event
  // without limit.
  WatchQueue q2;
  q2.set_coalescing(true);
  for (std::uint64_t i = 0; i < kMaxTraceRefs + 8; ++i)
    q2.push(traced(100 + i, 1000 + i));
  auto capped = q2.try_pop();
  ASSERT_TRUE(capped.has_value());
  EXPECT_EQ(capped->trace.size(), kMaxTraceRefs);
  EXPECT_EQ(capped->trace_ts_ns, 1000u);
}

TEST(WatchQueueTest, CoalescingOffKeepsDuplicates) {
  WatchQueue q;  // default: no coalescing
  q.push({event::modified, 1, "v", 0});
  q.push({event::modified, 1, "v", 0});
  EXPECT_EQ(q.size(), 2u);
}

TEST(WatchQueueTest, OverflowPushWakesBlockedConsumer) {
  // Regression: push() used to enqueue the overflow marker without
  // notifying the condition variable, so a consumer already blocked in
  // pop_wait slept through it until the full timeout expired (wait_until's
  // final predicate check would then find the marker — masking the lost
  // wakeup as latency, not loss).  Capacity 0 makes every push take the
  // overflow branch, so the consumer is deterministically blocked on an
  // empty queue when the marker lands.
  WatchQueue q(0);
  obs::Registry registry;
  auto* depth = registry.gauge("q/depth");
  auto* drops = registry.counter("q/drops");
  q.bind_metrics(depth, drops);

  std::optional<Event> got;
  std::chrono::steady_clock::duration waited{};
  std::thread consumer([&] {
    auto start = std::chrono::steady_clock::now();
    got = q.pop_wait(std::chrono::seconds(3));
    waited = std::chrono::steady_clock::now() - start;
  });
  // Let the consumer block, then flood.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  q.push({event::created, 1, "a", 0});
  consumer.join();

  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->is(event::overflow));
  // Well under the 3 s timeout: the push itself woke the consumer.
  EXPECT_LT(waited, std::chrono::seconds(1));
  EXPECT_GE(drops->value(), 1u);  // the original event was dropped
  EXPECT_EQ(depth->value(), 0);  // gauge tracked the marker in and out
}

TEST(WatchQueueTest, OverflowPushUpdatesDepthGauge) {
  WatchQueue q(1);
  obs::Registry registry;
  auto* depth = registry.gauge("q/depth");
  q.bind_metrics(depth, nullptr);
  q.push({event::created, 1, "a", 0});
  EXPECT_EQ(depth->value(), 1);
  q.push({event::created, 1, "b", 0});  // overflow marker
  EXPECT_EQ(depth->value(), 2);         // gauge saw the marker enqueue
  q.push({event::created, 1, "c", 0});  // dropped, nothing enqueued
  EXPECT_EQ(depth->value(), 2);
}

TEST(WatchQueueTest, PopWaitDeadlineIsAbsolute) {
  // pop_wait must honour one absolute deadline: a stream of wakeups that
  // never leaves an event for this consumer cannot extend the wait.  A
  // churn thread pushes and a stealer drains, so the blocked consumer is
  // woken repeatedly while usually finding the queue empty.
  WatchQueue q;
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    while (!stop.load()) {
      q.push({event::created, 1, "x", 0});
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  std::thread stealer([&] {
    while (!stop.load()) (void)q.try_pop();
  });

  auto start = std::chrono::steady_clock::now();
  (void)q.pop_wait(std::chrono::milliseconds(150));
  auto waited = std::chrono::steady_clock::now() - start;
  stop.store(true);
  churn.join();
  stealer.join();
  // The consumer may win an event (early return) but may never overshoot
  // the deadline by more than scheduling slack.
  EXPECT_LT(waited, std::chrono::milliseconds(1000));
}

TEST_F(MemFsTest, UnwatchStopsDelivery) {
  auto q = std::make_shared<WatchQueue>();
  auto id = fs.watch(fs.root(), event::all, q);
  ASSERT_TRUE(id.ok());
  fs.unwatch(*id);
  ASSERT_TRUE(fs.create(fs.root(), "f", 0644, root).ok());
  EXPECT_FALSE(q->try_pop().has_value());
}

// --- Vfs: mounts and resolution -------------------------------------------

class VfsTest : public ::testing::Test {
 protected:
  std::shared_ptr<Vfs> vfs = std::make_shared<Vfs>();
  Credentials root = Credentials::root();
};

TEST_F(VfsTest, NormalizePath) {
  EXPECT_EQ(normalize_path(""), "/");
  EXPECT_EQ(normalize_path("/"), "/");
  EXPECT_EQ(normalize_path("a/b"), "/a/b");
  EXPECT_EQ(normalize_path("//a///b/"), "/a/b");
  EXPECT_EQ(normalize_path("/a/./b/."), "/a/b");
  EXPECT_EQ(normalize_path("/a/../b"), "/a/../b");  // ".." kept for resolver
  EXPECT_EQ(normalize_path("./a/.//b/./"), "/a/b");
  EXPECT_EQ(normalize_path("/./."), "/");
  EXPECT_EQ(normalize_path("/.a/..b/..."), "/.a/..b/...");
}

TEST_F(VfsTest, WriteReadFile) {
  ASSERT_FALSE(vfs->mkdir("/etc"));
  ASSERT_FALSE(vfs->write_file("/etc/conf", "hello"));
  EXPECT_EQ(*vfs->read_file("/etc/conf"), "hello");
  ASSERT_FALSE(vfs->write_file("/etc/conf", "shorter"));
  EXPECT_EQ(*vfs->read_file("/etc/conf"), "shorter");  // truncated
  ASSERT_FALSE(vfs->append_file("/etc/conf", "+x"));
  EXPECT_EQ(*vfs->read_file("/etc/conf"), "shorter+x");
}

TEST_F(VfsTest, MissingPathsReportEnoent) {
  EXPECT_EQ(vfs->read_file("/nope").error(), err(Errc::not_found));
  EXPECT_EQ(vfs->stat("/a/b/c").error(), err(Errc::not_found));
  EXPECT_EQ(vfs->mkdir("/a/b"), err(Errc::not_found));  // no /a
}

TEST_F(VfsTest, FileAsDirectoryReportsEnotdir) {
  ASSERT_FALSE(vfs->write_file("/f", "x"));
  EXPECT_EQ(vfs->read_file("/f/sub").error(), err(Errc::not_dir));
}

TEST_F(VfsTest, MkdirP) {
  ASSERT_FALSE(vfs->mkdir_p("/a/b/c/d"));
  EXPECT_TRUE(vfs->stat("/a/b/c/d")->is_dir());
  // Idempotent.
  EXPECT_FALSE(vfs->mkdir_p("/a/b/c/d"));
  // Fails through a file.
  ASSERT_FALSE(vfs->write_file("/a/file", "x"));
  EXPECT_EQ(vfs->mkdir_p("/a/file/sub"), err(Errc::not_dir));
}

TEST_F(VfsTest, RemoveAll) {
  ASSERT_FALSE(vfs->mkdir_p("/t/x/y"));
  ASSERT_FALSE(vfs->write_file("/t/f1", "1"));
  ASSERT_FALSE(vfs->write_file("/t/x/f2", "2"));
  ASSERT_FALSE(vfs->symlink("/t/f1", "/t/x/l"));
  ASSERT_FALSE(vfs->remove_all("/t"));
  EXPECT_EQ(vfs->stat("/t").error(), err(Errc::not_found));
}

TEST_F(VfsTest, SymlinkResolution) {
  ASSERT_FALSE(vfs->mkdir_p("/data/real"));
  ASSERT_FALSE(vfs->write_file("/data/real/file", "payload"));
  ASSERT_FALSE(vfs->symlink("/data/real", "/link-abs"));
  ASSERT_FALSE(vfs->symlink("real/file", "/data/link-rel"));
  EXPECT_EQ(*vfs->read_file("/link-abs/file"), "payload");
  EXPECT_EQ(*vfs->read_file("/data/link-rel"), "payload");
  // lstat does not follow, stat does.
  EXPECT_TRUE(vfs->lstat("/link-abs")->is_symlink());
  EXPECT_TRUE(vfs->stat("/link-abs")->is_dir());
  EXPECT_EQ(*vfs->readlink("/link-abs"), "/data/real");
}

TEST_F(VfsTest, SymlinkLoopDetected) {
  ASSERT_FALSE(vfs->symlink("/b", "/a"));
  ASSERT_FALSE(vfs->symlink("/a", "/b"));
  EXPECT_EQ(vfs->read_file("/a").error(), err(Errc::symlink_loop));
}

TEST_F(VfsTest, DotDotResolution) {
  ASSERT_FALSE(vfs->mkdir_p("/a/b"));
  ASSERT_FALSE(vfs->write_file("/a/f", "top"));
  EXPECT_EQ(*vfs->read_file("/a/b/../f"), "top");
  EXPECT_EQ(*vfs->read_file("/a/b/../../a/f"), "top");
  // ".." above root stays at root.
  EXPECT_EQ(*vfs->read_file("/../../a/f"), "top");
}

TEST_F(VfsTest, DotDotThroughSymlink) {
  ASSERT_FALSE(vfs->mkdir_p("/x/deep"));
  ASSERT_FALSE(vfs->mkdir_p("/y"));
  ASSERT_FALSE(vfs->write_file("/x/marker", "in-x"));
  ASSERT_FALSE(vfs->symlink("/x/deep", "/y/link"));
  // POSIX: ".." applies to the symlink target's directory, not /y.
  EXPECT_EQ(*vfs->read_file("/y/link/../marker"), "in-x");
}

TEST_F(VfsTest, MountAndCross) {
  auto extra = std::make_shared<MemFs>();
  ASSERT_FALSE(vfs->mkdir("/net"));
  ASSERT_FALSE(vfs->mount("/net", extra));
  ASSERT_FALSE(vfs->write_file("/net/inside", "net-data"));
  EXPECT_EQ(*vfs->read_file("/net/inside"), "net-data");
  // Data landed in the mounted fs, not the root fs.
  EXPECT_TRUE(extra->lookup(extra->root(), "inside").ok());
  // ".." crosses back out of the mount.
  ASSERT_FALSE(vfs->write_file("/outside", "root-data"));
  EXPECT_EQ(*vfs->read_file("/net/../outside"), "root-data");
}

TEST_F(VfsTest, MountRequiresExistingDirectory) {
  auto extra = std::make_shared<MemFs>();
  EXPECT_EQ(vfs->mount("/missing", extra), err(Errc::not_found));
  ASSERT_FALSE(vfs->write_file("/file", "x"));
  EXPECT_EQ(vfs->mount("/file", extra), err(Errc::not_dir));
}

TEST_F(VfsTest, MountPointBusyRules) {
  auto extra = std::make_shared<MemFs>();
  ASSERT_FALSE(vfs->mkdir("/net"));
  ASSERT_FALSE(vfs->mount("/net", extra));
  EXPECT_EQ(vfs->mount("/net", std::make_shared<MemFs>()), err(Errc::busy));
  EXPECT_EQ(vfs->rmdir("/net"), err(Errc::busy));
  EXPECT_EQ(vfs->rename("/net", "/net2"), err(Errc::busy));
  ASSERT_FALSE(vfs->umount("/net"));
  EXPECT_EQ(vfs->umount("/net"), err(Errc::not_found));
  EXPECT_FALSE(vfs->rmdir("/net"));
}

// The mount table is keyed on logical paths, not on the node a mount
// covers: once the covered directory's parent moves, the old path, made
// again, crosses into the mount, and the moved directory is plain.
TEST_F(VfsTest, MountCrossingFollowsPathAfterParentRename) {
  auto extra = std::make_shared<MemFs>();
  ASSERT_TRUE(extra->create(extra->root(), "inside", 0644, root).ok());
  ASSERT_FALSE(vfs->mkdir_p("/p/m"));
  ASSERT_FALSE(vfs->mount("/p/m", extra));
  ASSERT_FALSE(vfs->rename("/p", "/q"));
  ASSERT_FALSE(vfs->mkdir_p("/p/m"));

  auto mounted = vfs->resolve("/p/m", root);
  ASSERT_TRUE(mounted.ok());
  EXPECT_EQ(mounted->fs, extra);
  EXPECT_EQ(mounted->node, extra->root());
  EXPECT_EQ(mounted->logical, "/p/m");
  EXPECT_TRUE(vfs->stat("/p/m/inside").ok());

  auto moved = vfs->resolve("/q/m", root);
  ASSERT_TRUE(moved.ok());
  EXPECT_NE(moved->fs, extra);
  EXPECT_EQ(moved->type, FileType::directory);
  EXPECT_EQ(moved->logical, "/q/m");
  EXPECT_EQ(vfs->stat("/q/m/inside").error(), err(Errc::not_found));
}

TEST_F(VfsTest, UmountRefusedWithSubmount) {
  ASSERT_FALSE(vfs->mkdir("/a"));
  ASSERT_FALSE(vfs->mount("/a", std::make_shared<MemFs>()));
  ASSERT_FALSE(vfs->mkdir("/a/b"));
  ASSERT_FALSE(vfs->mount("/a/b", std::make_shared<MemFs>()));
  EXPECT_EQ(vfs->umount("/a"), err(Errc::busy));
  ASSERT_FALSE(vfs->umount("/a/b"));
  EXPECT_FALSE(vfs->umount("/a"));
}

TEST_F(VfsTest, ReadOnlyMount) {
  auto extra = std::make_shared<MemFs>();
  // Pre-populate, then mount read-only.
  ASSERT_TRUE(extra->create(extra->root(), "f", 0644, root).ok());
  ASSERT_FALSE(vfs->mkdir("/ro"));
  ASSERT_FALSE(vfs->mount("/ro", extra, MountOptions{.read_only = true}));
  EXPECT_EQ(vfs->write_file("/ro/f", "x"), err(Errc::read_only));
  EXPECT_EQ(vfs->mkdir("/ro/d"), err(Errc::read_only));
  EXPECT_EQ(vfs->unlink("/ro/f"), err(Errc::read_only));
  EXPECT_EQ(vfs->chmod("/ro/f", 0600), err(Errc::read_only));
  EXPECT_TRUE(vfs->read_file("/ro/f").ok());
}

TEST_F(VfsTest, RenameAcrossMountsIsExdev) {
  ASSERT_FALSE(vfs->mkdir("/m"));
  ASSERT_FALSE(vfs->mount("/m", std::make_shared<MemFs>()));
  ASSERT_FALSE(vfs->write_file("/src", "x"));
  EXPECT_EQ(vfs->rename("/src", "/m/dst"), err(Errc::cross_device));
  EXPECT_EQ(vfs->link("/src", "/m/l"), err(Errc::cross_device));
}

TEST_F(VfsTest, ExecutePermissionGatesTraversal) {
  ASSERT_FALSE(vfs->mkdir("/locked", 0700, root));
  ASSERT_FALSE(vfs->write_file("/locked/f", "secret", root));
  EXPECT_EQ(vfs->read_file("/locked/f", alice()).error(),
            err(Errc::access_denied));
}

TEST_F(VfsTest, OpenFlagsSemantics) {
  namespace of = open_flags;
  // O_CREAT|O_EXCL on existing file.
  ASSERT_FALSE(vfs->write_file("/f", "abc"));
  EXPECT_EQ(vfs->open("/f", of::write_only | of::create | of::excl, 0644,
                      root).error(),
            err(Errc::exists));
  // O_TRUNC clears.
  auto h = vfs->open("/f", of::write_only | of::truncate, 0644, root);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(vfs->stat("/f")->size, 0u);
  // Write-only handle cannot read; read-only cannot write.
  EXPECT_EQ((*h)->read(10).error(), err(Errc::bad_handle));
  auto r = vfs->open("/f", of::read_only, 0, root);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->write("x").error(), err(Errc::bad_handle));
  // Directories cannot be opened.
  ASSERT_FALSE(vfs->mkdir("/d"));
  EXPECT_EQ(vfs->open("/d", of::read_only, 0, root).error(),
            err(Errc::is_dir));
}

TEST_F(VfsTest, AppendHandleSeeksToEnd) {
  namespace of = open_flags;
  ASSERT_FALSE(vfs->write_file("/log", "start:"));
  auto h = vfs->open("/log", of::write_only | of::append, 0644, root);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE((*h)->write("a").ok());
  // Another writer extends the file; append must still go to the new end.
  ASSERT_FALSE(vfs->append_file("/log", "b"));
  ASSERT_TRUE((*h)->write("c").ok());
  EXPECT_EQ(*vfs->read_file("/log"), "start:abc");
}

TEST_F(VfsTest, HandleSequentialReads) {
  namespace of = open_flags;
  ASSERT_FALSE(vfs->write_file("/f", "abcdef"));
  auto h = vfs->open("/f", of::read_only, 0, root);
  EXPECT_EQ(*(*h)->read(2), "ab");
  EXPECT_EQ(*(*h)->read(2), "cd");
  EXPECT_EQ(*(*h)->pread(0, 3), "abc");  // pread does not move offset
  EXPECT_EQ(*(*h)->read(10), "ef");
}

TEST_F(VfsTest, WatchThroughVfsPath) {
  ASSERT_FALSE(vfs->mkdir("/w"));
  auto q = std::make_shared<WatchQueue>();
  auto handle = vfs->watch("/w", event::created, q);
  ASSERT_TRUE(handle.ok());
  ASSERT_FALSE(vfs->write_file("/w/new", "x"));
  auto e = q->try_pop();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->name, "new");
  handle->reset();  // RAII unregister
  ASSERT_FALSE(vfs->write_file("/w/new2", "x"));
  EXPECT_FALSE(q->try_pop().has_value());
}

// A watch handle whose node was removed before the handle was dropped
// leaves the watches of other nodes in place.
TEST_F(VfsTest, WatchHandleDroppedAfterItsNodeWentLeavesOthersWatched) {
  ASSERT_FALSE(vfs->mkdir_p("/a"));
  ASSERT_FALSE(vfs->mkdir_p("/b"));
  ASSERT_FALSE(vfs->write_file("/a/f", "x"));
  auto q = std::make_shared<WatchQueue>();
  auto on_file = vfs->watch("/a/f", event::all, q);
  auto on_dir = vfs->watch("/b", event::created, q);
  ASSERT_TRUE(on_file.ok() && on_dir.ok());
  ASSERT_FALSE(vfs->unlink("/a/f"));
  (void)q->drain();
  on_file->reset();
  ASSERT_FALSE(vfs->write_file("/b/g", "y"));
  auto e = q->try_pop();
  ASSERT_TRUE(e.has_value());
  EXPECT_TRUE(e->is(event::created));
  EXPECT_EQ(e->name, "g");
}

TEST_F(VfsTest, CountersTrackOps) {
  vfs->reset_counters();
  ASSERT_FALSE(vfs->mkdir_p("/a/b"));
  ASSERT_FALSE(vfs->write_file("/a/b/f", "x"));
  (void)vfs->read_file("/a/b/f");
  EXPECT_GT(vfs->counters().total.load(), 0u);
  EXPECT_GT(vfs->counters().lookups.load(), 0u);
  EXPECT_GE(vfs->counters().writes.load(), 1u);
  EXPECT_GE(vfs->counters().reads.load(), 1u);
}

TEST_F(VfsTest, AclRoundTripThroughVfs) {
  ASSERT_FALSE(vfs->write_file("/f", "x"));
  Acl acl = Acl::from_mode(0640);
  acl.add({AclTag::user, 1000, 4});
  acl.add({AclTag::mask, 0, 7});
  ASSERT_FALSE(vfs->set_acl("/f", acl));
  auto got = vfs->get_acl("/f");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, acl);
  EXPECT_FALSE(vfs->access("/f", 4, alice()));
  EXPECT_EQ(vfs->access("/f", 2, alice()), err(Errc::access_denied));
}

TEST_F(VfsTest, RenameOverwriteEmitsDeleteSelfOnVictim) {
  ASSERT_FALSE(vfs->write_file("/a", "new"));
  ASSERT_FALSE(vfs->write_file("/b", "old"));
  auto victim = vfs->resolve("/b", Credentials::root());
  ASSERT_TRUE(victim.ok());
  auto q = std::make_shared<WatchQueue>();
  ASSERT_TRUE(victim->fs->watch(victim->node, event::delete_self, q).ok());
  ASSERT_FALSE(vfs->rename("/a", "/b"));
  auto e = q->try_pop();
  ASSERT_TRUE(e.has_value());
  EXPECT_TRUE(e->is(event::delete_self));
  EXPECT_EQ(*vfs->read_file("/b"), "new");
}

TEST_F(VfsTest, HardLinkSurvivesRenameOfOtherName) {
  ASSERT_FALSE(vfs->write_file("/f", "shared"));
  ASSERT_FALSE(vfs->link("/f", "/g"));
  ASSERT_FALSE(vfs->rename("/f", "/f2"));
  EXPECT_EQ(*vfs->read_file("/g"), "shared");
  EXPECT_EQ(*vfs->read_file("/f2"), "shared");
  // Writing through one name is visible through the other.
  ASSERT_FALSE(vfs->write_file("/g", "updated"));
  EXPECT_EQ(*vfs->read_file("/f2"), "updated");
}

TEST_F(VfsTest, MkdirPThroughSymlink) {
  ASSERT_FALSE(vfs->mkdir_p("/real/base"));
  ASSERT_FALSE(vfs->symlink("/real/base", "/alias"));
  ASSERT_FALSE(vfs->mkdir_p("/alias/x/y"));
  EXPECT_TRUE(vfs->stat("/real/base/x/y")->is_dir());
}

TEST_F(VfsTest, ListxattrAfterRemoveStaysConsistent) {
  ASSERT_FALSE(vfs->write_file("/f", "x"));
  ASSERT_FALSE(vfs->setxattr("/f", "user.a", {1}));
  ASSERT_FALSE(vfs->setxattr("/f", "user.b", {2}));
  ASSERT_FALSE(vfs->removexattr("/f", "user.a"));
  auto names = vfs->listxattr("/f");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, std::vector<std::string>{"user.b"});
  EXPECT_EQ(vfs->removexattr("/f", "user.a"), err(Errc::not_found));
}

TEST_F(VfsTest, NamespaceOverReadOnlyMount) {
  auto extra = std::make_shared<MemFs>();
  ASSERT_TRUE(extra->mkdir(extra->root(), "sub", 0755, root).ok());
  ASSERT_FALSE(vfs->mkdir("/ro"));
  ASSERT_FALSE(vfs->mount("/ro", extra, MountOptions{.read_only = true}));
  Namespace ns(vfs, "/ro", Credentials::root());
  EXPECT_TRUE(ns.stat("/sub")->is_dir());
  EXPECT_EQ(ns.write_file("/sub/f", "x"), err(Errc::read_only));
}

TEST_F(VfsTest, ConcurrentMutationSmoke) {
  // Two writers and a reader hammer one MemFs; nothing crashes, counts
  // add up.  (The per-fs mutex is the concurrency story; this is a smoke
  // test, not a linearizability proof.)
  ASSERT_FALSE(vfs->mkdir("/t"));
  constexpr int kPerThread = 500;
  auto writer = [&](int id) {
    for (int i = 0; i < kPerThread; ++i) {
      std::string path =
          "/t/w" + std::to_string(id) + "_" + std::to_string(i);
      (void)vfs->write_file(path, "data");
    }
  };
  std::thread a(writer, 0), b(writer, 1);
  std::size_t reads = 0;
  for (int i = 0; i < 200; ++i) {
    auto entries = vfs->readdir("/t");
    if (entries) reads += entries->size();
  }
  a.join();
  b.join();
  auto entries = vfs->readdir("/t");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u * kPerThread);
  EXPECT_GE(reads, 0u);
}

// --- mounts reached via ".." and symlinks -----------------------------------

TEST_F(VfsTest, DotDotPathCrossesIntoMount) {
  auto extra = std::make_shared<MemFs>();
  ASSERT_FALSE(vfs->mkdir("/a"));
  ASSERT_FALSE(vfs->mkdir("/mnt"));
  ASSERT_FALSE(vfs->mount("/mnt", extra));
  ASSERT_FALSE(vfs->write_file("/a/../mnt/f", "inside"));
  // The write crossed into the mounted fs, not the covered directory.
  EXPECT_TRUE(extra->lookup(extra->root(), "f").ok());
  EXPECT_EQ(*vfs->read_file("/a/../mnt/f"), "inside");
  EXPECT_EQ(*vfs->read_file("/mnt/f"), "inside");
}

TEST_F(VfsTest, MountKeyedOnResolvedPath) {
  // Mounting via a ".." spelling must produce the same mount as the plain
  // one: the table keys on the resolved logical path, so the resolver can
  // actually find it and a second mount at the same place is EBUSY.
  auto extra = std::make_shared<MemFs>();
  ASSERT_FALSE(vfs->mkdir("/a"));
  ASSERT_FALSE(vfs->mkdir("/mnt"));
  ASSERT_FALSE(vfs->mount("/a/../mnt", extra));
  ASSERT_FALSE(vfs->write_file("/mnt/f", "x"));
  EXPECT_TRUE(extra->lookup(extra->root(), "f").ok());
  EXPECT_EQ(vfs->mount("/mnt", std::make_shared<MemFs>()), err(Errc::busy));
  // umount accepts either spelling.
  ASSERT_FALSE(vfs->umount("/a/../mnt"));
  EXPECT_EQ(vfs->umount("/mnt"), err(Errc::not_found));
}

TEST_F(VfsTest, MountRootProtectedFromDotDotSpellings) {
  // Pre-fix, the EBUSY guard compared the lexical path against the mount
  // table, so "/a/../mnt" slipped past it and rmdir removed the directory
  // under a live mount.
  ASSERT_FALSE(vfs->mkdir("/a"));
  ASSERT_FALSE(vfs->mkdir("/mnt"));
  ASSERT_FALSE(vfs->mount("/mnt", std::make_shared<MemFs>()));
  EXPECT_EQ(vfs->rmdir("/a/../mnt"), err(Errc::busy));
  EXPECT_EQ(vfs->rename("/a/../mnt", "/zz"), err(Errc::busy));
  ASSERT_FALSE(vfs->write_file("/src", "x"));
  EXPECT_EQ(vfs->rename("/src", "/a/../mnt"), err(Errc::busy));
  EXPECT_TRUE(vfs->stat("/mnt").ok());
}

TEST_F(VfsTest, MountRootProtectedThroughSymlinkedParent) {
  ASSERT_FALSE(vfs->mkdir("/mnt"));
  ASSERT_FALSE(vfs->mount("/mnt", std::make_shared<MemFs>()));
  // /s resolves to /, so "/s/mnt" names the mount root.
  ASSERT_FALSE(vfs->symlink("/", "/s"));
  EXPECT_EQ(vfs->rmdir("/s/mnt"), err(Errc::busy));
  EXPECT_EQ(vfs->rename("/s/mnt", "/zz"), err(Errc::busy));
  EXPECT_TRUE(vfs->stat("/mnt").ok());
}

// --- resolution after a change ----------------------------------------------
//
// Named for a resolution cache Vfs no longer has: every resolution walks.
// They still pin that a resolution after an unlink, rename, chmod or
// umount sees it, and that one caller's success proves nothing for
// another caller.

TEST_F(VfsTest, DentryCacheInvalidatedOnUnlink) {
  ASSERT_FALSE(vfs->write_file("/f", "x"));
  EXPECT_TRUE(vfs->stat("/f").ok());  // populate the cache
  ASSERT_FALSE(vfs->unlink("/f"));
  EXPECT_EQ(vfs->stat("/f").error(), err(Errc::not_found));
}

TEST_F(VfsTest, DentryCacheInvalidatedOnRename) {
  ASSERT_FALSE(vfs->mkdir("/d"));
  ASSERT_FALSE(vfs->write_file("/d/f", "v1"));
  EXPECT_EQ(*vfs->read_file("/d/f"), "v1");  // populate the cache
  ASSERT_FALSE(vfs->rename("/d/f", "/d/g"));
  EXPECT_EQ(vfs->read_file("/d/f").error(), err(Errc::not_found));
  EXPECT_EQ(*vfs->read_file("/d/g"), "v1");
  // Renaming a directory invalidates cached paths through it.
  ASSERT_FALSE(vfs->rename("/d", "/e"));
  EXPECT_EQ(vfs->read_file("/d/g").error(), err(Errc::not_found));
  EXPECT_EQ(*vfs->read_file("/e/g"), "v1");
}

TEST_F(VfsTest, DentryCacheInvalidatedOnChmod) {
  ASSERT_FALSE(vfs->mkdir("/p", 0755));
  ASSERT_FALSE(vfs->write_file("/p/f", "x"));
  ASSERT_FALSE(vfs->chmod("/p/f", 0644));
  EXPECT_EQ(*vfs->read_file("/p/f", alice()), "x");  // cached for alice
  // Locking the directory must take effect despite the cached resolution.
  ASSERT_FALSE(vfs->chmod("/p", 0700));
  EXPECT_EQ(vfs->read_file("/p/f", alice()).error(),
            err(Errc::access_denied));
}

TEST_F(VfsTest, DentryCacheInvalidatedOnUmount) {
  auto extra = std::make_shared<MemFs>();
  ASSERT_TRUE(extra->create(extra->root(), "f", 0644,
                            Credentials::root()).ok());
  ASSERT_FALSE(vfs->mkdir("/mnt"));
  ASSERT_FALSE(vfs->mount("/mnt", extra));
  EXPECT_TRUE(vfs->stat("/mnt/f").ok());  // resolves into the mount
  ASSERT_FALSE(vfs->umount("/mnt"));
  EXPECT_EQ(vfs->stat("/mnt/f").error(), err(Errc::not_found));
}

TEST_F(VfsTest, DentryCacheIsPerCredential) {
  ASSERT_FALSE(vfs->mkdir("/locked", 0700, root));
  ASSERT_FALSE(vfs->write_file("/locked/f", "secret", root));
  // Root's successful (cached) resolution must not leak to alice, whose
  // walk fails the execute check on /locked.
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(vfs->stat("/locked/f", root).ok());
  EXPECT_EQ(vfs->stat("/locked/f", alice()).error(),
            err(Errc::access_denied));
}

// --- multi-threaded stress ----------------------------------------------------

TEST_F(VfsTest, ResolveDuringConcurrentMountUmount) {
  // Readers walk into /mnt while another thread mounts and unmounts a
  // fresh MemFs there.  A walk pins each filesystem it enters, so a read
  // that crossed into the mount finishes on it even when the umount has
  // dropped the last other reference.
  constexpr int kCycles = 300;
  constexpr int kReaders = 3;
  ASSERT_FALSE(vfs->mkdir("/mnt"));
  std::atomic<bool> done{false};
  std::atomic<int> mounted_reads{0};
  std::atomic<int> unexpected{0};
  auto reader = [&] {
    while (!done.load(std::memory_order_acquire)) {
      auto data = vfs->read_file("/mnt/f");
      if (data && *data == "mounted")
        mounted_reads.fetch_add(1, std::memory_order_relaxed);
      else if (data || data.error() != err(Errc::not_found))
        unexpected.fetch_add(1);
      if (!vfs->stat("/mnt").ok()) unexpected.fetch_add(1);
    }
  };
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) threads.emplace_back(reader);
  threads.emplace_back([&] {
    for (int i = 0; i < kCycles; ++i) {
      auto fs = std::make_shared<MemFs>();
      auto f = fs->create(fs->root(), "f", 0644, root);
      EXPECT_TRUE(f.ok() && fs->replace(*f, "mounted", root).ok());
      EXPECT_FALSE(vfs->mount("/mnt", std::move(fs)));
      // Give the readers a chance to walk into this mount.
      int seen = mounted_reads.load();
      for (int spin = 0; spin < 100 && mounted_reads.load() == seen; ++spin)
        std::this_thread::yield();
      EXPECT_FALSE(vfs->umount("/mnt"));
    }
    done.store(true, std::memory_order_release);
  });
  for (auto& t : threads) t.join();

  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_GT(mounted_reads.load(), 0);
  EXPECT_EQ(vfs->read_file("/mnt/f").error(), err(Errc::not_found));
}

TEST_F(VfsTest, MultiThreadedReadersAndMutators) {
  // N readers resolve and read a shared tree while writers rewrite file
  // contents and a renamer shuffles a directory back and forth.  The test
  // asserts no crashes, no torn reads (file contents are always one of the
  // values some writer produced), and a consistent final state.  Run under
  // TSan via scripts/sanitize.sh tsan, this is the data-race gate for the
  // sharded locking.
  constexpr int kFiles = 16;
  constexpr int kReaders = 4;
  constexpr int kWriters = 2;
  constexpr int kIters = 400;
  ASSERT_FALSE(vfs->mkdir("/t"));
  ASSERT_FALSE(vfs->mkdir("/t/stable"));
  for (int i = 0; i < kFiles; ++i) {
    ASSERT_FALSE(vfs->write_file("/t/stable/f" + std::to_string(i), "w0_0"));
  }
  ASSERT_FALSE(vfs->mkdir("/t/flip"));

  std::atomic<int> torn{0};
  auto reader = [&](int seed) {
    for (int i = 0; i < kIters; ++i) {
      std::string path =
          "/t/stable/f" + std::to_string((seed + i) % kFiles);
      auto data = vfs->read_file(path);
      ASSERT_TRUE(data.ok()) << path;
      // Every valid content is "w<writer>_<iter>"; a torn read would mix.
      if (data->empty() || (*data)[0] != 'w') torn.fetch_add(1);
      (void)vfs->stat(path);
      (void)vfs->readdir("/t/stable");
    }
  };
  auto writer = [&](int id) {
    for (int i = 0; i < kIters; ++i) {
      std::string path =
          "/t/stable/f" + std::to_string((id * 7 + i) % kFiles);
      std::string value = numbered(numbered("w", id) + "_", i);
      ASSERT_FALSE(vfs->write_file(path, value));
    }
  };
  auto renamer = [&] {
    for (int i = 0; i < kIters; ++i) {
      std::string from = (i % 2) ? "/t/flop" : "/t/flip";
      std::string to = (i % 2) ? "/t/flip" : "/t/flop";
      ASSERT_FALSE(vfs->rename(from, to));
      (void)vfs->stat(to);
    }
  };

  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) threads.emplace_back(reader, r);
  for (int w = 0; w < kWriters; ++w) threads.emplace_back(writer, w);
  threads.emplace_back(renamer);
  for (auto& t : threads) t.join();

  EXPECT_EQ(torn.load(), 0);
  auto entries = vfs->readdir("/t/stable");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), static_cast<std::size_t>(kFiles));
}

TEST_F(VfsTest, ConcurrentDistinctFileWritesAndReads) {
  // Writers on distinct files take mu_ shared + their own shard; readers
  // of other files must never observe partial content.
  constexpr int kThreads = 6;
  constexpr int kIters = 300;
  ASSERT_FALSE(vfs->mkdir("/w"));
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_FALSE(
        vfs->write_file("/w/f" + std::to_string(t), std::string(64, 'a')));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::string mine = "/w/f" + std::to_string(t);
      std::string other = "/w/f" + std::to_string((t + 1) % kThreads);
      for (int i = 0; i < kIters; ++i) {
        char c = static_cast<char>('a' + (i % 26));
        ASSERT_FALSE(vfs->write_file(mine, std::string(64, c)));
        auto data = vfs->read_file(other);
        ASSERT_TRUE(data.ok());
        ASSERT_EQ(data->size(), 64u);
        // Single-writer-per-file: content is always 64 copies of one byte.
        EXPECT_EQ(data->find_first_not_of((*data)[0]), std::string::npos);
      }
    });
  }
  for (auto& t : threads) t.join();
}

// --- directory-relative calls ----------------------------------------------

TEST_F(VfsTest, AtCallsActOnTheResolvedDirectory) {
  ASSERT_FALSE(vfs->mkdir_p("/net/sw1"));
  auto dir = vfs->resolve("/net/sw1", root);
  ASSERT_TRUE(dir.ok());
  ASSERT_FALSE(vfs->write_file(*dir, "id", "0x1"));
  EXPECT_EQ(*vfs->read_file("/net/sw1/id"), "0x1");
  ASSERT_FALSE(vfs->write_file(*dir, "id", "0x2"));  // replaces
  EXPECT_EQ(*vfs->read_file(*dir, "id"), "0x2");
  ASSERT_FALSE(vfs->mkdir(*dir, "ports"));
  ASSERT_FALSE(vfs->write_file("/net/sw1/ports/p1", "x"));
  auto ports = vfs->readdir(*dir, "ports");
  ASSERT_TRUE(ports.ok());
  ASSERT_EQ(ports->size(), 1u);
  EXPECT_EQ((*ports)[0].name, "p1");
  auto listing = vfs->readdir(*dir);
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->size(), 2u);
  auto id = vfs->resolve(*dir, "id", root);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id->logical, "/net/sw1/id");
  EXPECT_EQ(id->type, FileType::regular);
  ASSERT_FALSE(vfs->unlink(*dir, "id"));
  EXPECT_EQ(vfs->read_file("/net/sw1/id").error(), err(Errc::not_found));
  EXPECT_EQ(vfs->unlink(*dir, "id"), err(Errc::not_found));
  EXPECT_EQ(vfs->mkdir(*dir, "ports"), err(Errc::exists));
  EXPECT_EQ(vfs->write_file(*dir, "ports", "x"), err(Errc::is_dir));
}

// resolve(dir) plus a call on (dir, name) counts what the path call counts;
// the call alone counts one lookup, or none for unlink, whose path form
// walks only to the parent.
TEST_F(VfsTest, AtCallsCountOneLookupAndTheirClass) {
  ASSERT_FALSE(vfs->mkdir_p("/a/b"));
  ASSERT_FALSE(vfs->write_file("/a/b/f", "x"));
  auto snapshot = [&] {
    const OpCounters& c = vfs->counters();
    return std::array<std::uint64_t, 5>{c.total.load(), c.reads.load(),
                                        c.writes.load(), c.metadata.load(),
                                        c.lookups.load()};
  };
  auto delta = [&](auto op) {
    auto before = snapshot();
    op();
    auto after = snapshot();
    for (std::size_t i = 0; i < before.size(); ++i) after[i] -= before[i];
    return after;
  };
  // total, reads, writes, metadata, lookups
  using Counts = std::array<std::uint64_t, 5>;
  auto dir = vfs->resolve("/a/b", root);
  ASSERT_TRUE(dir.ok());

  EXPECT_EQ(delta([&] { (void)vfs->read_file(*dir, "f"); }),
            (Counts{2, 1, 0, 0, 1}));
  EXPECT_EQ(delta([&] { (void)vfs->write_file(*dir, "f", "y"); }),
            (Counts{3, 0, 1, 1, 1}));
  EXPECT_EQ(delta([&] { (void)vfs->readdir(*dir, "f"); }),
            (Counts{2, 0, 0, 1, 1}));
  EXPECT_EQ(delta([&] { (void)vfs->readdir(*dir); }), (Counts{1, 0, 0, 1, 0}));
  EXPECT_EQ(delta([&] { (void)vfs->unlink(*dir, "f"); }),
            (Counts{1, 0, 1, 0, 0}));
  EXPECT_EQ(delta([&] { (void)vfs->mkdir(*dir, "d"); }),
            (Counts{1, 0, 1, 0, 0}));

  // The same calls by path: the walk to /a/b is the difference.
  ASSERT_FALSE(vfs->write_file("/a/b/f", "x"));
  auto walk = delta([&] { (void)vfs->resolve("/a/b", root); });
  auto by_path = delta([&] { (void)vfs->read_file("/a/b/f"); });
  auto at = delta([&] { (void)vfs->read_file(*dir, "f"); });
  EXPECT_EQ(by_path[4], walk[4] + at[4]);
  EXPECT_EQ(by_path[0], walk[0] + at[0]);
}

TEST_F(VfsTest, AtCallsRejectNamesThatAreNotOneComponent) {
  ASSERT_FALSE(vfs->mkdir_p("/d/e"));
  ASSERT_FALSE(vfs->write_file("/d/f", "x"));
  auto dir = vfs->resolve("/d", root);
  ASSERT_TRUE(dir.ok());
  const auto einval = err(Errc::invalid_argument);
  for (std::string_view name : {"", ".", "..", "e/f", "/f", "f/", "e/.."}) {
    SCOPED_TRACE(std::string(name));
    EXPECT_EQ(vfs->resolve(*dir, name, root).error(), einval);
    EXPECT_EQ(vfs->read_file(*dir, name).error(), einval);
    EXPECT_EQ(vfs->write_file(*dir, name, "x"), einval);
    EXPECT_EQ(vfs->mkdir(*dir, name), einval);
    EXPECT_EQ(vfs->unlink(*dir, name), einval);
    EXPECT_EQ(vfs->readdir(*dir, name).error(), einval);
  }
  EXPECT_EQ(*vfs->read_file("/d/f"), "x");
  EXPECT_TRUE(vfs->stat("/d/e")->is_dir());
}

TEST_F(VfsTest, AtCallsKeepPermissionsReadOnlyMountsAndCrossings) {
  ASSERT_FALSE(vfs->mkdir("/d", 0755));
  ASSERT_FALSE(vfs->write_file("/d/secret", "s"));
  ASSERT_FALSE(vfs->chmod("/d/secret", 0600));
  ASSERT_FALSE(vfs->mkdir("/d/m"));
  auto mounted = std::make_shared<MemFs>();
  ASSERT_TRUE(mounted->create(mounted->root(), "inside", 0644, root).ok());
  ASSERT_FALSE(vfs->mount("/d/m", mounted, MountOptions{.read_only = true}));
  auto dir = vfs->resolve("/d", alice());
  ASSERT_TRUE(dir.ok());

  EXPECT_EQ(vfs->read_file(*dir, "secret", alice()).error(),
            err(Errc::access_denied));
  EXPECT_EQ(vfs->write_file(*dir, "new", "x", alice()),
            err(Errc::access_denied));  // /d is 0755 root-owned
  auto m = vfs->resolve(*dir, "m", alice());
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->fs.get(), mounted.get());
  EXPECT_EQ(m->node, mounted->root());
  EXPECT_TRUE(m->read_only);
  EXPECT_EQ(vfs->write_file(*m, "inside", "x"), err(Errc::read_only));
  EXPECT_EQ(vfs->write_file(*m, "other", "x"), err(Errc::read_only));
  EXPECT_EQ(vfs->unlink(*m, "inside"), err(Errc::read_only));
  EXPECT_EQ(vfs->unlink(*dir, "m"), err(Errc::busy));  // a mount point

  // A directory the caller may not search refuses the step, as the path
  // walk does.
  ASSERT_FALSE(vfs->chmod("/d", 0700));
  EXPECT_EQ(vfs->read_file(*dir, "secret", alice()).error(),
            err(Errc::access_denied));
  EXPECT_EQ(vfs->read_file("/d/secret", alice()).error(),
            err(Errc::access_denied));
}

TEST_F(VfsTest, AtCallsFollowSymlinksLikeThePathWalk) {
  ASSERT_FALSE(vfs->mkdir_p("/a/b"));
  ASSERT_FALSE(vfs->write_file("/a/target", "t"));
  ASSERT_FALSE(vfs->symlink("../target", "/a/b/up"));
  ASSERT_FALSE(vfs->symlink("/a/target", "/a/b/abs"));
  auto dir = vfs->resolve("/a/b", root);
  ASSERT_TRUE(dir.ok());
  EXPECT_EQ(*vfs->read_file(*dir, "up"), "t");
  EXPECT_EQ(*vfs->read_file(*dir, "abs"), "t");
  auto link = vfs->resolve(*dir, "up", root, /*follow_final=*/false);
  ASSERT_TRUE(link.ok());
  EXPECT_EQ(link->type, FileType::symlink);

  // Inside a namespace an absolute target re-anchors at its root.
  ASSERT_FALSE(vfs->mkdir_p("/ns/a"));
  ASSERT_FALSE(vfs->write_file("/ns/a/target", "inner"));
  ASSERT_FALSE(vfs->symlink("/a/target", "/ns/a/abs"));
  auto ns_dir = vfs->resolve("/a", root, true, "/ns");
  ASSERT_TRUE(ns_dir.ok());
  EXPECT_EQ(ns_dir->logical, "/ns/a");
  EXPECT_EQ(*vfs->read_file(*ns_dir, "abs"), "inner");
  EXPECT_EQ(*vfs->read_file("/a/abs", root, "/ns"), "inner");
}

// A handle follows its directory's node, as a dirfd does.
TEST_F(VfsTest, AtCallsOnARemovedDirectoryFindAndMakeNothing) {
  auto memfs = std::dynamic_pointer_cast<MemFs>(vfs->mounted_at("/"));
  ASSERT_TRUE(memfs);
  ASSERT_FALSE(vfs->mkdir("/d"));
  ASSERT_FALSE(vfs->write_file("/d/f", "x"));
  auto dir = vfs->resolve("/d", root);
  ASSERT_TRUE(dir.ok());
  ASSERT_FALSE(vfs->remove_all("/d"));
  const std::size_t inodes = memfs->inode_count();

  const auto enoent = err(Errc::not_found);
  EXPECT_EQ(vfs->resolve(*dir, "f", root).error(), enoent);
  EXPECT_EQ(vfs->read_file(*dir, "f").error(), enoent);
  EXPECT_EQ(vfs->write_file(*dir, "f", "y"), enoent);
  EXPECT_EQ(vfs->write_file(*dir, "g", "y"), enoent);
  EXPECT_EQ(vfs->mkdir(*dir, "sub"), enoent);
  EXPECT_EQ(vfs->unlink(*dir, "f"), enoent);
  EXPECT_EQ(vfs->readdir(*dir, "f").error(), enoent);
  EXPECT_EQ(vfs->readdir(*dir).error(), enoent);
  EXPECT_EQ(memfs->inode_count(), inodes);
  EXPECT_EQ(vfs->stat("/d").error(), enoent);
}

TEST_F(VfsTest, AtCallsFollowARenamedDirectory) {
  ASSERT_FALSE(vfs->mkdir("/d"));
  ASSERT_FALSE(vfs->write_file("/d/f", "x"));
  ASSERT_FALSE(vfs->write_file("/t", "top"));
  // Symlink leaves whose targets stay in /d, re-anchor at the root and
  // climb above /d.
  ASSERT_FALSE(vfs->symlink("f", "/d/in"));
  ASSERT_FALSE(vfs->symlink("/t", "/d/abs"));
  ASSERT_FALSE(vfs->symlink("../t", "/d/up"));
  auto dir = vfs->resolve("/d", root);
  ASSERT_TRUE(dir.ok());
  EXPECT_EQ(*vfs->read_file(*dir, "up"), "top");
  ASSERT_FALSE(vfs->rename("/d", "/e"));
  EXPECT_EQ(*vfs->read_file(*dir, "f"), "x");
  EXPECT_EQ(*vfs->read_file(*dir, "in"), "x");
  EXPECT_EQ(*vfs->read_file(*dir, "abs"), "top");
  // A ".." target is finished through the directory's path, which no
  // longer reaches its node.
  EXPECT_EQ(vfs->read_file(*dir, "up").error(), err(Errc::not_found));
  ASSERT_FALSE(vfs->write_file(*dir, "g", "y"));
  EXPECT_EQ(*vfs->read_file("/e/g"), "y");
  ASSERT_FALSE(vfs->unlink(*dir, "f"));
  EXPECT_EQ(vfs->read_file("/e/f").error(), err(Errc::not_found));
  EXPECT_EQ(vfs->stat("/d").error(), err(Errc::not_found));

  // A directory made under the old name is reached neither by a step nor
  // by the ".." target's walk.
  ASSERT_FALSE(vfs->mkdir("/d"));
  ASSERT_FALSE(vfs->write_file("/d/g", "new"));
  ASSERT_FALSE(vfs->symlink("../t", "/d/up"));
  EXPECT_EQ(*vfs->read_file(*dir, "g"), "y");
  EXPECT_EQ(vfs->read_file(*dir, "up").error(), err(Errc::not_found));
  EXPECT_EQ(*vfs->read_file(*dir, "abs"), "top");
}

TEST_F(VfsTest, AtCallsNeverReachADirectoryRecreatedUnderTheOldName) {
  ASSERT_FALSE(vfs->mkdir("/d"));
  auto dir = vfs->resolve("/d", root);
  ASSERT_TRUE(dir.ok());
  ASSERT_FALSE(vfs->rmdir("/d"));
  ASSERT_FALSE(vfs->mkdir("/d"));
  ASSERT_FALSE(vfs->write_file("/d/f", "new"));

  EXPECT_EQ(vfs->read_file(*dir, "f").error(), err(Errc::not_found));
  EXPECT_EQ(vfs->write_file(*dir, "g", "x"), err(Errc::not_found));
  EXPECT_EQ(vfs->mkdir(*dir, "sub"), err(Errc::not_found));
  EXPECT_EQ(vfs->stat("/d/g").error(), err(Errc::not_found));
  EXPECT_EQ(vfs->stat("/d/sub").error(), err(Errc::not_found));
  EXPECT_EQ(*vfs->read_file("/d/f"), "new");
}

// Three threads read and write through handles to /d while a fourth
// removes it (moved aside, then rmdir'd) and recreates it: every call finds
// the directory or reports not_found, and none fails another way.
TEST_F(VfsTest, AtCallsRaceRemoveAndRecreate) {
  constexpr int kRecreates = 300;
  ASSERT_FALSE(vfs->mkdir("/d"));
  std::atomic<bool> done{false};
  std::atomic<int> ok{0}, missing{0}, other{0};
  auto tally = [&](std::error_code ec) {
    if (!ec)
      ++ok;
    else if (ec == err(Errc::not_found))
      ++missing;
    else
      ++other;
  };
  // Waits until the readers have made another call, so every removal and
  // recreation overlaps reader calls however the threads are scheduled.
  auto await_reader_call = [&] {
    const int seen = ok.load() + missing.load() + other.load();
    while (ok.load() + missing.load() + other.load() == seen)
      std::this_thread::yield();
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      const std::string mine = numbered("f", t);
      while (!done.load()) {
        auto dir = vfs->resolve("/d", Credentials::root());
        if (!dir) {
          tally(dir.error());
          continue;
        }
        tally(vfs->write_file(*dir, mine, "x"));
        auto read = vfs->read_file(*dir, mine);
        tally(read ? std::error_code() : read.error());
        auto listing = vfs->readdir(*dir);
        tally(listing ? std::error_code() : listing.error());
      }
    });
  }
  threads.emplace_back([&] {
    while (ok.load() == 0) std::this_thread::yield();
    for (int i = 0; i < kRecreates; ++i) {
      // Out of the readers' way first: they resolve /d afresh for every
      // round, so only handles they already hold can refill the directory
      // between remove_all's unlinks and its rmdir.
      EXPECT_FALSE(vfs->rename("/d", "/old"));
      await_reader_call();
      Status ec;
      do {
        ec = vfs->remove_all("/old", Credentials::root());
      } while (ec == err(Errc::not_empty));
      EXPECT_FALSE(ec);
      await_reader_call();
      EXPECT_FALSE(vfs->mkdir("/d"));
      await_reader_call();
    }
    done.store(true);
  });
  for (auto& th : threads) th.join();
  EXPECT_EQ(other.load(), 0);
  EXPECT_GT(missing.load(), 0);
}

// --- namespaces ---------------------------------------------------------------

class NamespaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_FALSE(vfs->mkdir_p("/net/views/v1/switches"));
    ASSERT_FALSE(vfs->write_file("/net/views/v1/inside", "view-data"));
    ASSERT_FALSE(vfs->write_file("/net/secret", "master-only"));
  }
  std::shared_ptr<Vfs> vfs = std::make_shared<Vfs>();
};

TEST_F(NamespaceTest, SeesOwnSubtreeAtRoot) {
  Namespace ns(vfs, "/net/views/v1", Credentials::root());
  EXPECT_EQ(*ns.read_file("/inside"), "view-data");
  EXPECT_TRUE(ns.stat("/switches")->is_dir());
  auto entries = ns.readdir("/");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);
}

TEST_F(NamespaceTest, CannotEscapeWithDotDot) {
  Namespace ns(vfs, "/net/views/v1", Credentials::root());
  EXPECT_EQ(ns.read_file("/../secret").error(), err(Errc::not_found));
  EXPECT_EQ(ns.read_file("/../../net/secret").error(), err(Errc::not_found));
}

TEST_F(NamespaceTest, AbsoluteSymlinkReanchorsAtNamespaceRoot) {
  // A symlink pointing at "/inside" must resolve inside the namespace even
  // though the underlying path is /net/views/v1/inside.
  ASSERT_FALSE(vfs->symlink("/inside", "/net/views/v1/alias"));
  Namespace ns(vfs, "/net/views/v1", Credentials::root());
  EXPECT_EQ(*ns.read_file("/alias"), "view-data");
}

TEST_F(NamespaceTest, WritesLandInSubtree) {
  Namespace ns(vfs, "/net/views/v1", Credentials::root());
  ASSERT_FALSE(ns.write_file("/newfile", "hello"));
  EXPECT_EQ(*vfs->read_file("/net/views/v1/newfile"), "hello");
}

TEST_F(NamespaceTest, CarriesCredentials) {
  ASSERT_FALSE(vfs->chmod("/net/views/v1/inside", 0600));
  ASSERT_FALSE(vfs->chown("/net/views/v1/inside", 0, 0));
  Namespace ns(vfs, "/net/views/v1", alice());
  EXPECT_EQ(ns.read_file("/inside").error(), err(Errc::access_denied));
}


// --- SynthFs through the Vfs -------------------------------------------------

// A path walk learns a file's type from its walk step, so reading a
// synthetic file renders it once; stat reports size 0, as procfs does,
// and renders nothing.
TEST(SynthFsVfsTest, ReadFileRendersOnceStatRendersNothing) {
  Vfs vfs;
  ASSERT_FALSE(vfs.mkdir("/synth"));
  int file_renders = 0;
  int entry_renders = 0;
  auto fs = std::make_shared<SynthFs>();
  ASSERT_NE(fs->add_file("dir/value",
                         [&] {
                           ++file_renders;
                           return std::string("42\n");
                         }),
            kInvalidNode);
  ASSERT_NE(fs->add_list(
                "by-id", [] { return std::vector<std::string>{"7", "9"}; },
                [&](const std::string& name) {
                  ++entry_renders;
                  return "span " + name + "\n";
                }),
            kInvalidNode);
  ASSERT_FALSE(vfs.mount("/synth", fs));

  EXPECT_EQ(*vfs.read_file("/synth/dir/value"), "42\n");
  EXPECT_EQ(file_renders, 1);
  EXPECT_EQ(*vfs.read_file("/synth/by-id/7"), "span 7\n");
  EXPECT_EQ(entry_renders, 1);

  auto st = vfs.stat("/synth/dir/value");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 0u);
  EXPECT_EQ(file_renders, 1);
  auto entry = vfs.stat("/synth/by-id/9");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->size, 0u);
  EXPECT_EQ(entry_renders, 1);
  EXPECT_EQ(vfs.read_file("/synth/by-id/8").error(), err(Errc::not_found));
  EXPECT_EQ(entry_renders, 1);
}

// --- Differential resolver test ---------------------------------------------

// A plain resolver to check Vfs::resolve against: it splits paths into
// strings, keeps pending components in a deque, and asks the filesystem
// getattr / access / lookup / getattr for every component, with no cache.
class ReferenceResolver {
 public:
  struct Mount {
    FilesystemPtr fs;
    bool read_only;
  };
  struct Out {
    Filesystem* fs;
    NodeId node;
    bool read_only;
    std::string logical;
  };
  std::map<std::string, Mount> mounts;  // logical path -> mount

  Result<Out> resolve(std::string_view path, const Credentials& creds,
                      bool follow_final, std::string_view root) const {
    const Mount& top = mounts.at("/");
    std::vector<Frame> stack{{top.fs, top.fs->root(), "", top.read_only}};
    int symlinks_left = 40;
    auto root_comps = split(root);
    if (!root_comps.empty()) {
      if (auto ec = walk(stack, root_comps, creds, true, 1, symlinks_left))
        return ec;
      auto attr = stack.back().fs->getattr(stack.back().node);
      if (!attr) return attr.error();
      if (!attr->is_dir()) return Errc::not_dir;
    }
    auto comps = split(path);
    if (auto ec = walk(stack, comps, creds, follow_final, stack.size(),
                       symlinks_left))
      return ec;
    const Frame& f = stack.back();
    return Out{f.fs.get(), f.node, f.read_only, f.logical};
  }

 private:
  struct Frame {
    FilesystemPtr fs;
    NodeId node;
    std::string logical;
    bool read_only;
  };

  static std::deque<std::string> split(std::string_view path) {
    std::deque<std::string> out;
    std::string comp;
    for (char c : std::string(path) + "/") {
      if (c != '/') {
        comp += c;
        continue;
      }
      if (!comp.empty() && comp != ".") out.push_back(comp);
      comp.clear();
    }
    return out;
  }

  std::error_code walk(std::vector<Frame>& stack,
                       std::deque<std::string>& comps,
                       const Credentials& creds, bool follow_final,
                       std::size_t base, int& symlinks_left) const {
    while (!comps.empty()) {
      std::string comp = comps.front();
      comps.pop_front();
      if (comp == "..") {
        if (stack.size() > base) stack.pop_back();
        continue;
      }
      Frame cur = stack.back();
      auto dir = cur.fs->getattr(cur.node);
      if (!dir) return dir.error();
      if (!dir->is_dir()) return err(Errc::not_dir);
      if (auto ec = cur.fs->access(cur.node, 1, creds)) return ec;
      auto child = cur.fs->lookup(cur.node, comp);
      if (!child) return child.error();
      auto attr = cur.fs->getattr(*child);
      if (!attr) return attr.error();
      if (attr->is_symlink() && (!comps.empty() || follow_final)) {
        if (--symlinks_left < 0) return err(Errc::symlink_loop);
        auto target = cur.fs->readlink(*child);
        if (!target) return target.error();
        if (!target->empty() && (*target)[0] == '/') stack.resize(base);
        auto target_comps = split(*target);
        comps.insert(comps.begin(), target_comps.begin(), target_comps.end());
        continue;
      }
      std::string logical = cur.logical + "/" + comp;
      auto m = mounts.find(logical);
      if (m != mounts.end())
        stack.push_back(
            {m->second.fs, m->second.fs->root(), logical, m->second.read_only});
      else
        stack.push_back({cur.fs, *child, logical, cur.read_only});
    }
    return {};
  }
};

// Random trees of directories (some not searchable by some callers),
// files and relative, absolute, dangling and looping symlinks, with a
// mount at /m and a read-only mount at /m/ro.
class RandomTree {
 public:
  explicit RandomTree(std::uint32_t seed) : rng_(seed) {
    ref.mounts["/"] = {vfs->mounted_at("/"), false};
    populate("", 3);
    EXPECT_FALSE(vfs->mkdir("/m"));
    (void)vfs->mkdir("/a");  // EEXIST when populate() made it
    EXPECT_FALSE(vfs->symlink("/a", "/ln"));
    EXPECT_FALSE(vfs->symlink("/lp2", "/lp1"));
    EXPECT_FALSE(vfs->symlink("lp1", "/lp2"));
    EXPECT_FALSE(vfs->write_file("/file", "x"));
    dirs_.push_back("/m");

    auto m = std::make_shared<MemFs>();
    EXPECT_FALSE(vfs->mount("/m", m));
    ref.mounts["/m"] = {m, false};
    populate("/m", 2);
    EXPECT_FALSE(vfs->mkdir("/m/ro"));

    // Fill the read-only tree through a writable mount, then remount it.
    auto ro = std::make_shared<MemFs>();
    EXPECT_FALSE(vfs->mount("/m/ro", ro));
    populate("/m/ro", 2);
    EXPECT_FALSE(vfs->umount("/m/ro"));
    EXPECT_FALSE(vfs->mount("/m/ro", ro, MountOptions{.read_only = true}));
    ref.mounts["/m/ro"] = {ro, true};
  }

  std::size_t pick(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_);
  }

  std::string random_path() {
    static const char* kComps[] = {"a", "b", "c", "f", "g", "s1", "s2",
                                   "s3", "m", "ro", "ln", "lp1", "file",
                                   "..", "..", ".", "", "zz"};
    std::string path = pick(4) ? "/" : "";
    std::size_t n = pick(7);
    for (std::size_t i = 0; i < n; ++i) {
      if (i) path += pick(6) ? "/" : "//";
      path += kComps[pick(std::size(kComps))];
    }
    if (pick(6) == 0) path += '/';
    return path;
  }

  // Flips one directory's mode, which both resolvers must see.
  void mutate() {
    static const std::uint32_t kModes[] = {0755, 0711, 0750, 0700, 0644};
    const std::string& dir = dirs_[pick(dirs_.size())];
    auto st = vfs->lstat(dir);
    if (st && st->is_dir() && !dir.starts_with("/m/ro")) {
      EXPECT_FALSE(vfs->chmod(dir, kModes[pick(std::size(kModes))]));
    }
  }

  std::shared_ptr<Vfs> vfs = std::make_shared<Vfs>();
  ReferenceResolver ref;

 private:
  void populate(const std::string& dir, int depth) {
    static const char* kDirs[] = {"a", "b", "c"};
    static const std::uint32_t kModes[] = {0755, 0755, 0711, 0750, 0700,
                                           0644};
    static const char* kTargets[] = {
        "a",  "../a",    "b/f", "..", ".",       "a/../b", "/a",      "/a/b/f",
        "/m", "/m/ro/a", "/",   "s1", "s2",      "../s1",  "zz",      "",
        "f",  "a//b/",   "/ln/../a", "../../..", "/file",  "/file/x"};
    for (const char* name : kDirs) {
      if (depth == 0 || pick(3) == 0) continue;
      std::string path = dir + "/" + name;
      EXPECT_FALSE(vfs->mkdir(path, kModes[pick(std::size(kModes))]));
      if (pick(3) == 0) {
        EXPECT_FALSE(vfs->chown(path, 1000, 100));
      }
      dirs_.push_back(path);
      populate(path, depth - 1);
    }
    for (const char* name : {"f", "g"}) {
      if (pick(2)) {
        EXPECT_FALSE(vfs->write_file(dir + "/" + name, name));
      }
    }
    for (const char* name : {"s1", "s2", "s3"}) {
      if (pick(3)) {
        EXPECT_FALSE(vfs->symlink(kTargets[pick(std::size(kTargets))],
                                  dir + "/" + name));
      }
    }
  }

  std::mt19937 rng_;
  std::vector<std::string> dirs_;
};

TEST(ResolverDifferentialTest, MatchesReferenceWalkerOverRandomTrees) {
  const Credentials kCreds[] = {Credentials::root(), alice(), bob(),
                                carol()};
  const char* kRoots[] = {"/", "/", "/a", "/ln", "/m", "/m/ro", "/file",
                          "//a/./"};
  std::size_t paths = 0;
  std::map<std::string, int> seen;  // outcome -> count, for coverage
  std::vector<std::string> mismatches;
  auto note = [&](const std::string& what) {
    if (mismatches.size() < 8) mismatches.push_back(what);
  };

  for (std::uint32_t seed = 1; seed <= 6; ++seed) {
    RandomTree tree(seed);
    if (::testing::Test::HasFailure()) return;
    for (int i = 0; i < 2000; ++i, ++paths) {
      if (i % 150 == 149) tree.mutate();
      std::string path = tree.random_path();
      const Credentials& creds = kCreds[tree.pick(std::size(kCreds))];
      std::string root = kRoots[tree.pick(std::size(kRoots))];
      std::string where = "seed " + std::to_string(seed) + " uid " +
                          std::to_string(creds.uid) + " root " + root +
                          " path '" + path + "'";

      for (bool follow : {true, false}) {
        auto got = tree.vfs->resolve(path, creds, follow, root);
        auto want = tree.ref.resolve(path, creds, follow, root);
        std::string ctx = where + (follow ? " (follow)" : " (nofollow)");
        if (got.ok() != want.ok() || (!got && got.error() != want.error())) {
          note(ctx + ": got " + (got ? "ok" : got.error().message()) +
               ", want " + (want ? "ok" : want.error().message()));
          continue;
        }
        if (!got) {
          ++seen[got.error().message()];
          continue;
        }
        if (got->fs.get() != want->fs || got->node != want->node ||
            got->read_only != want->read_only ||
            got->logical != want->logical) {
          note(ctx + ": got node " + std::to_string(got->node) + " '" +
               got->logical + "', want node " + std::to_string(want->node) +
               " '" + want->logical + "'");
          continue;
        }
        ++seen["ok"];
        if (got->read_only) ++seen["read_only"];
        if (got->logical.starts_with("/m")) ++seen["mounted"];
      }

      // The at-call on the path's last component, from its parent resolved
      // with the same credentials and root, reaches what the path does.
      std::string norm = normalize_path(path);
      std::size_t slash = norm.rfind('/');
      std::string leaf = norm.substr(slash + 1);
      if (norm != "/" && leaf != "..") {
        std::string parent_path = slash == 0 ? "/" : norm.substr(0, slash);
        auto parent = tree.vfs->resolve(parent_path, creds, true, root);
        for (bool follow : {true, false}) {
          auto want = tree.vfs->resolve(path, creds, follow, root);
          auto got = parent ? tree.vfs->resolve(*parent, leaf, creds, follow)
                            : Result<Vfs::Resolved>(parent.error());
          std::string ctx =
              where + (follow ? " at (follow)" : " at (nofollow)");
          if (got.ok() != want.ok() || (!got && got.error() != want.error())) {
            note(ctx + ": got " + (got ? "ok" : got.error().message()) +
                 ", want " + (want ? "ok" : want.error().message()));
            continue;
          }
          if (!got) {
            ++seen["at " + got.error().message()];
            continue;
          }
          if (got->fs != want->fs || got->node != want->node ||
              got->type != want->type || got->read_only != want->read_only ||
              got->logical != want->logical) {
            note(ctx + ": got node " + std::to_string(got->node) + " '" +
                 got->logical + "', want node " + std::to_string(want->node) +
                 " '" + want->logical + "'");
            continue;
          }
          ++seen["at ok"];
          if (got->read_only) ++seen["at read_only"];
          if (got->logical.starts_with("/m")) ++seen["at mounted"];
          if (!follow) {
            auto st = got->fs->getattr(got->node);
            if (st && st->is_symlink()) ++seen["at symlink"];
          }
        }
      }

      // stat follows a final symlink, lstat does not; both walk the path
      // again, as every resolution does.
      for (bool follow : {true, false}) {
        auto got = follow ? tree.vfs->stat(path, creds, root)
                          : tree.vfs->lstat(path, creds, root);
        auto want = tree.ref.resolve(path, creds, follow, root);
        Result<Stat> want_st = want ? want->fs->getattr(want->node)
                                    : Result<Stat>(want.error());
        if (got.ok() != want_st.ok() ||
            (!got && got.error() != want_st.error()) ||
            (got && (got->ino != want_st->ino || got->type != want_st->type ||
                     got->size != want_st->size)))
          note(where + (follow ? " stat" : " lstat") + " differs");
      }
    }
  }

  EXPECT_GE(paths, 10000u);
  for (const auto& m : mismatches) ADD_FAILURE() << m;
  // The trees and paths reach every kind of outcome.
  for (Errc e : {Errc::not_found, Errc::not_dir, Errc::access_denied,
                 Errc::symlink_loop})
    EXPECT_GT(seen[make_error_code(e).message()], 0)
        << make_error_code(e).message();
  EXPECT_GT(seen["ok"], 1000);
  EXPECT_GT(seen["read_only"], 0);
  EXPECT_GT(seen["mounted"], 0);
  // The at-call reaches every outcome too, symlink leaves included.
  for (Errc e : {Errc::not_found, Errc::not_dir, Errc::access_denied,
                 Errc::symlink_loop})
    EXPECT_GT(seen["at " + make_error_code(e).message()], 0)
        << make_error_code(e).message();
  EXPECT_GT(seen["at ok"], 500);
  EXPECT_GT(seen["at read_only"], 0);
  EXPECT_GT(seen["at mounted"], 0);
  EXPECT_GT(seen["at symlink"], 0);
}

}  // namespace
}  // namespace yanc::vfs
