// Storage-fault vfs layer: clean-path RAII semantics, every injection
// point (open/write/short-write/sync/rename/torn-rename/unlink), the
// deterministic capacity ledger (ENOSPC + credit-back on unlink), path
// filtering, and seed determinism.

#include "util/vfs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace hdcs::vfs {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  std::string dir = testing::TempDir() + name;
  fs::remove_all(dir);
  make_dirs(dir);
  return dir;
}

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) out[i] = std::byte(s[i]);
  return out;
}

TEST(Vfs, CreateWriteSyncReadRoundTrip) {
  std::string dir = fresh_dir("vfs_roundtrip");
  std::string path = dir + "/file.bin";
  auto payload = bytes_of("hello durable world");
  {
    File f = File::create(path);
    ASSERT_TRUE(f.valid());
    f.write_all(payload);
    f.sync();
    f.close();
    EXPECT_FALSE(f.valid());
  }
  EXPECT_EQ(read_file(path), payload);
  EXPECT_TRUE(exists(path));
  EXPECT_FALSE(read_file_if_exists(dir + "/missing").has_value());
  EXPECT_THROW(read_file(dir + "/missing"), IoError);
}

TEST(Vfs, AppendExtendsExistingFile) {
  std::string dir = fresh_dir("vfs_append");
  std::string path = dir + "/log";
  {
    File f = File::create(path);
    f.write_all(bytes_of("abc"));
    f.close();
  }
  {
    File f = File::append(path);
    f.write_all(bytes_of("def"));
    f.close();
  }
  EXPECT_EQ(read_file(path), bytes_of("abcdef"));
  EXPECT_THROW((void)File::append(dir + "/missing"), IoError);
  File created = File::append(dir + "/missing", /*create_missing=*/true);
  EXPECT_TRUE(created.valid());
}

TEST(Vfs, OpenErrorInjection) {
  std::string dir = fresh_dir("vfs_openerr");
  StorageFaultSpec spec;
  spec.open_error_prob = 1.0;
  ScopedStorageFaultPlan scoped(spec);
  EXPECT_THROW((void)File::create(dir + "/f"), IoError);
  EXPECT_GE(scoped.plan().stats().open_errors, 1u);
}

TEST(Vfs, WriteErrorInjectionLandsNothing) {
  std::string dir = fresh_dir("vfs_writeerr");
  std::string path = dir + "/f";
  StorageFaultSpec spec;
  spec.write_error_prob = 1.0;
  ScopedStorageFaultPlan scoped(spec);
  File f = File::create(path);
  EXPECT_THROW(f.write_all(bytes_of("doomed payload")), IoError);
  f.close();
  EXPECT_EQ(fs::file_size(path), 0u);
  EXPECT_GE(scoped.plan().stats().write_errors, 1u);
}

TEST(Vfs, ShortWriteLandsStrictPrefix) {
  std::string dir = fresh_dir("vfs_short");
  std::string path = dir + "/f";
  auto payload = bytes_of("0123456789abcdef0123456789abcdef");
  StorageFaultSpec spec;
  spec.short_write_prob = 1.0;
  ScopedStorageFaultPlan scoped(spec);
  File f = File::create(path);
  EXPECT_THROW(f.write_all(payload), IoError);
  f.close();
  // read_file is never faulted, so the on-disk state is observable even
  // with the plan still installed: a strict prefix of the payload.
  auto on_disk = read_file(path);
  EXPECT_LT(on_disk.size(), payload.size());
  EXPECT_TRUE(std::equal(on_disk.begin(), on_disk.end(), payload.begin()));
  EXPECT_GE(scoped.plan().stats().short_writes, 1u);
}

TEST(Vfs, SyncFailurePoisonsHandle) {
  std::string dir = fresh_dir("vfs_syncerr");
  std::string path = dir + "/f";
  StorageFaultSpec spec;
  spec.sync_error_prob = 1.0;
  ScopedStorageFaultPlan scoped(spec);
  File f = File::create(path);
  f.write_all(bytes_of("x"));
  EXPECT_THROW(f.sync(), IoError);
  // fsyncgate: the handle is poisoned — further mutation throws without
  // touching the kernel (the plan records exactly one injected fault).
  EXPECT_THROW(f.sync(), IoError);
  EXPECT_THROW(f.write_all(bytes_of("y")), IoError);
  EXPECT_EQ(scoped.plan().stats().sync_errors, 1u);
}

TEST(Vfs, SyncLedgerRecordsCoveredBytesAndDelays) {
  std::string dir = fresh_dir("vfs_synced");
  std::string path = dir + "/log";
  StorageFaultSpec spec;
  spec.sync_delay_prob = 1.0;
  spec.sync_delay_s = 0.01;
  ScopedStorageFaultPlan scoped(spec);
  File f = File::create(path);
  f.write_all(bytes_of("abc"));
  EXPECT_EQ(scoped.plan().synced_bytes(path), 0u);
  // A second descriptor: an fsync through it covers what the first wrote.
  File again = f.reopen();
  again.sync();
  EXPECT_EQ(scoped.plan().synced_bytes(path), 3u);
  f.write_all(bytes_of("defg"));  // not covered until the next fsync
  EXPECT_EQ(scoped.plan().synced_bytes(path), 3u);
  f.sync();
  EXPECT_EQ(scoped.plan().synced_bytes(path), 7u);
  EXPECT_EQ(scoped.plan().stats().sync_delays, 2u);
  // Truncation clamps the ledger, a rename carries it along.
  truncate_file(path, 5);
  EXPECT_EQ(scoped.plan().synced_bytes(path), 5u);
  rename_file(path, dir + "/moved");
  EXPECT_EQ(scoped.plan().synced_bytes(path), 0u);
  EXPECT_EQ(scoped.plan().synced_bytes(dir + "/moved"), 5u);
}

TEST(Vfs, CapacityLedgerEnospcAndCreditBack) {
  std::string dir = fresh_dir("vfs_capacity");
  std::string path = dir + "/f";
  StorageFaultSpec spec;
  spec.disk_capacity_bytes = 100;
  ScopedStorageFaultPlan scoped(spec);
  std::vector<std::byte> sixty(60, std::byte{0xaa});
  {
    File f = File::create(path);
    f.write_all(sixty);  // fits: 60/100
    EXPECT_EQ(scoped.plan().live_bytes(), 60u);
    // Second 60 does not fit: the remaining 40 land, then ENOSPC.
    EXPECT_THROW(f.write_all(sixty), IoError);
    f.close();
  }
  EXPECT_EQ(scoped.plan().live_bytes(), 100u);
  EXPECT_GE(scoped.plan().stats().enospc, 1u);
  EXPECT_EQ(fs::file_size(path), 100u);  // the disk really filled mid-write
  // Unlink credits the ledger back — compaction genuinely frees space.
  EXPECT_TRUE(remove_file(path));
  EXPECT_EQ(scoped.plan().live_bytes(), 0u);
  File again = File::create(path);
  again.write_all(sixty);  // fits again after the credit
  again.close();
}

TEST(Vfs, TruncatingCreateResetsCharge) {
  std::string dir = fresh_dir("vfs_trunc_create");
  std::string path = dir + "/f";
  StorageFaultSpec spec;
  spec.disk_capacity_bytes = 100;
  ScopedStorageFaultPlan scoped(spec);
  std::vector<std::byte> eighty(80, std::byte{0x11});
  {
    File f = File::create(path);
    f.write_all(eighty);
    f.close();
  }
  EXPECT_EQ(scoped.plan().live_bytes(), 80u);
  {
    // O_TRUNC re-create: the old 80 bytes are gone from the disk and must
    // be gone from the ledger too.
    File f = File::create(path);
    EXPECT_EQ(scoped.plan().live_bytes(), 0u);
    f.write_all(eighty);
    f.close();
  }
  EXPECT_EQ(scoped.plan().live_bytes(), 80u);
}

TEST(Vfs, PathFilterLimitsFaultsAndCharges) {
  std::string dir = fresh_dir("vfs_filter");
  StorageFaultSpec spec;
  spec.write_error_prob = 1.0;
  spec.path_filter = "walstorm";
  ScopedStorageFaultPlan scoped(spec);
  File clean = File::create(dir + "/results.txt");
  clean.write_all(bytes_of("safe"));  // outside the filter: never faulted
  clean.close();
  File dirty = File::create(dir + "/walstorm.seg");
  EXPECT_THROW(dirty.write_all(bytes_of("doomed")), IoError);
  dirty.close();
}

TEST(Vfs, RenameErrorLeavesDestinationUntouched) {
  std::string dir = fresh_dir("vfs_renameerr");
  std::string src = dir + "/src";
  std::string dst = dir + "/dst";
  {
    File f = File::create(src);
    f.write_all(bytes_of("payload"));
    f.close();
  }
  StorageFaultSpec spec;
  spec.rename_error_prob = 1.0;
  ScopedStorageFaultPlan scoped(spec);
  EXPECT_THROW(rename_file(src, dst), IoError);
  EXPECT_TRUE(exists(src));
  EXPECT_FALSE(exists(dst));
  EXPECT_GE(scoped.plan().stats().rename_errors, 1u);
}

TEST(Vfs, TornRenameLeavesTruncatedDestination) {
  std::string dir = fresh_dir("vfs_torn");
  std::string src = dir + "/src";
  std::string dst = dir + "/dst";
  auto payload = bytes_of("0123456789abcdef0123456789abcdef");
  {
    File f = File::create(src);
    f.write_all(payload);
    f.close();
  }
  StorageFaultSpec spec;
  spec.torn_rename_prob = 1.0;
  ScopedStorageFaultPlan scoped(spec);
  EXPECT_THROW(rename_file(src, dst), IoError);
  // The crash-on-non-atomic-fs model: source consumed, destination holds a
  // strict prefix — a reader must detect this via its CRC envelope.
  EXPECT_FALSE(exists(src));
  ASSERT_TRUE(exists(dst));
  auto torn = read_file(dst);
  ASSERT_LT(torn.size(), payload.size());
  EXPECT_TRUE(std::equal(torn.begin(), torn.end(), payload.begin()));
  EXPECT_GE(scoped.plan().stats().torn_renames, 1u);
}

TEST(Vfs, UnlinkErrorKeepsFileAndCharge) {
  std::string dir = fresh_dir("vfs_unlinkerr");
  std::string path = dir + "/f";
  StorageFaultSpec spec;
  spec.unlink_error_prob = 1.0;
  spec.disk_capacity_bytes = 1000;
  ScopedStorageFaultPlan scoped(spec);
  {
    File f = File::create(path);
    f.write_all(std::vector<std::byte>(10, std::byte{0x7f}));
    f.close();
  }
  EXPECT_EQ(scoped.plan().live_bytes(), 10u);
  EXPECT_FALSE(remove_file(path));
  EXPECT_TRUE(exists(path));
  EXPECT_EQ(scoped.plan().live_bytes(), 10u);  // charge stays with the file
  EXPECT_GE(scoped.plan().stats().unlink_errors, 1u);
}

TEST(Vfs, DirBytesSumsFlatRegularFiles) {
  std::string dir = fresh_dir("vfs_dirbytes");
  EXPECT_EQ(dir_bytes(dir + "/missing"), 0u);
  {
    File a = File::create(dir + "/a");
    a.write_all(std::vector<std::byte>(30, std::byte{1}));
    a.close();
    File b = File::create(dir + "/b");
    b.write_all(std::vector<std::byte>(12, std::byte{2}));
    b.close();
  }
  EXPECT_EQ(dir_bytes(dir), 42u);
}

TEST(Vfs, SameSeedSameStorm) {
  StorageFaultSpec spec;
  spec.seed = 99;
  spec.write_error_prob = 0.5;
  StorageFaultPlan a(spec);
  StorageFaultPlan b(spec);
  for (int i = 0; i < 200; ++i) {
    std::size_t ka = 0, kb = 0;
    EXPECT_EQ(a.write_fault("p", 64, ka), b.write_fault("p", 64, kb));
    EXPECT_EQ(ka, kb);
  }
  EXPECT_EQ(a.stats().write_errors, b.stats().write_errors);
}

}  // namespace
}  // namespace hdcs::vfs
