#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "common/failpoint.h"
#include "storage/disk_manager.h"

namespace oib {
namespace {

class FileDiskTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPointRegistry::Instance().Reset();
    path_ = std::filesystem::temp_directory_path() /
            ("oib_filedisk_test_" + std::to_string(::getpid()));
    RemoveAll();
  }
  void TearDown() override {
    FailPointRegistry::Instance().Reset();
    RemoveAll();
  }
  void RemoveAll() {
    for (const char* suffix : {"", ".meta", ".meta.tmp", ".dw"}) {
      std::filesystem::remove(path_.string() + suffix);
    }
  }
  // Flips one byte of a file in place.
  static void FlipByte(const std::string& file, long offset) {
    std::FILE* f = std::fopen(file.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    std::fputc(c ^ 0x40, f);
    std::fclose(f);
  }
  std::filesystem::path path_;
};

TEST_F(FileDiskTest, PagesPersistAcrossReopen) {
  {
    auto disk = FileDisk::Open(path_.string(), 4096);
    ASSERT_TRUE(disk.ok()) << disk.status().ToString();
    auto id = (*disk)->AllocatePage();
    ASSERT_TRUE(id.ok());
    std::string page(4096, '\0');
    page[100] = 'z';
    ASSERT_TRUE((*disk)->WritePage(*id, page.data()).ok());
    ASSERT_TRUE((*disk)->PutMeta("root", "41").ok());
  }
  {
    auto disk = FileDisk::Open(path_.string(), 4096);
    ASSERT_TRUE(disk.ok());
    EXPECT_EQ((*disk)->PageCount(), 1u);
    std::string page(4096, '\0');
    ASSERT_TRUE((*disk)->ReadPage(0, page.data()).ok());
    EXPECT_EQ(page[100], 'z');
    std::string meta;
    ASSERT_TRUE((*disk)->GetMeta("root", &meta).ok());
    EXPECT_EQ(meta, "41");
  }
}

TEST_F(FileDiskTest, NoReuseAllocationIsMonotone) {
  auto disk = FileDisk::Open(path_.string(), 4096);
  ASSERT_TRUE(disk.ok());
  auto a = (*disk)->AllocatePage();
  auto b = (*disk)->AllocatePageNoReuse();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE((*disk)->FreePage(*a).ok());
  auto c = (*disk)->AllocatePageNoReuse();
  ASSERT_TRUE(c.ok());
  EXPECT_GT(*c, *b);
}

// ReadPage serializes on the disk mutex, so a read-ahead hint could not
// overlap another read: the buffer pool must not read ahead on FileDisk.
TEST_F(FileDiskTest, ReportsReadsThatCannotBlock) {
  auto disk = FileDisk::Open(path_.string(), 4096);
  ASSERT_TRUE(disk.ok());
  EXPECT_FALSE((*disk)->reads_can_block());
}

TEST_F(FileDiskTest, OutOfRangeAccessRejected) {
  auto disk = FileDisk::Open(path_.string(), 4096);
  ASSERT_TRUE(disk.ok());
  std::string page(4096, '\0');
  EXPECT_TRUE((*disk)->ReadPage(7, page.data()).IsIoError());
  EXPECT_TRUE((*disk)->WritePage(7, page.data()).IsIoError());
}

TEST_F(FileDiskTest, FreshlyExtendedPagesVerifyAfterReopen) {
  {
    auto disk = FileDisk::Open(path_.string(), 4096);
    ASSERT_TRUE(disk.ok());
    ASSERT_TRUE((*disk)->AllocatePage().ok());
    ASSERT_TRUE((*disk)->AllocatePageNoReuse().ok());
  }
  auto disk = FileDisk::Open(path_.string(), 4096);
  ASSERT_TRUE(disk.ok());
  std::string page(4096, 'x');
  ASSERT_TRUE((*disk)->ReadPage(1, page.data()).ok());
  EXPECT_EQ(page, std::string(4096, '\0'));
}

TEST_F(FileDiskTest, ChecksumCatchesBitRot) {
  {
    auto disk = FileDisk::Open(path_.string(), 4096);
    ASSERT_TRUE(disk.ok());
    auto id = (*disk)->AllocatePage();
    ASSERT_TRUE(id.ok());
    std::string page(4096, 'q');
    ASSERT_TRUE((*disk)->WritePage(*id, page.data()).ok());
  }
  FlipByte(path_.string(), 1234);
  // Drop the journal so recovery cannot (correctly!) repair the slot.
  std::filesystem::remove(path_.string() + ".dw");
  auto disk = FileDisk::Open(path_.string(), 4096);
  ASSERT_TRUE(disk.ok());
  std::string page(4096, '\0');
  EXPECT_TRUE((*disk)->ReadPage(0, page.data()).IsCorruption());
}

TEST_F(FileDiskTest, MisdirectedSlotDetectedByPageIdEcho) {
  {
    auto disk = FileDisk::Open(path_.string(), 4096);
    ASSERT_TRUE(disk.ok());
    ASSERT_TRUE((*disk)->AllocatePage().ok());
    ASSERT_TRUE((*disk)->AllocatePage().ok());
    std::string page(4096, 'm');
    ASSERT_TRUE((*disk)->WritePage(0, page.data()).ok());
    ASSERT_TRUE((*disk)->WritePage(1, page.data()).ok());
  }
  // Copy slot 0 over slot 1: both CRCs are fine, but slot 1 now claims to
  // be page 0.
  const size_t slot = 4096 + FileDisk::kPageTrailerSize;
  std::string bytes(slot, '\0');
  std::FILE* f = std::fopen(path_.string().c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fread(bytes.data(), 1, slot, f), slot);
  ASSERT_EQ(std::fseek(f, long(slot), SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, slot, f), slot);
  std::fclose(f);
  std::filesystem::remove(path_.string() + ".dw");
  auto disk = FileDisk::Open(path_.string(), 4096);
  ASSERT_TRUE(disk.ok());
  std::string page(4096, '\0');
  EXPECT_TRUE((*disk)->ReadPage(1, page.data()).IsCorruption());
}

TEST_F(FileDiskTest, PartialTrailingSlotTruncatedAtOpen) {
  {
    auto disk = FileDisk::Open(path_.string(), 4096);
    ASSERT_TRUE(disk.ok());
    ASSERT_TRUE((*disk)->AllocatePage().ok());
    std::string page(4096, 'p');
    ASSERT_TRUE((*disk)->WritePage(0, page.data()).ok());
  }
  {
    // A crash mid-extend: garbage partial slot at the tail.
    std::FILE* f = std::fopen(path_.string().c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::string garbage(100, 'g');
    ASSERT_EQ(std::fwrite(garbage.data(), 1, garbage.size(), f),
              garbage.size());
    std::fclose(f);
  }
  auto disk = FileDisk::Open(path_.string(), 4096);
  ASSERT_TRUE(disk.ok());
  EXPECT_EQ((*disk)->PageCount(), 1u);
  std::string page(4096, '\0');
  EXPECT_TRUE((*disk)->ReadPage(0, page.data()).ok());
  EXPECT_EQ(page[0], 'p');
  // The truncated tail is reusable.
  auto id = (*disk)->AllocatePage();
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 1u);
}

TEST_F(FileDiskTest, TransientWriteErrorIsRetried) {
  auto disk = FileDisk::Open(path_.string(), 4096);
  ASSERT_TRUE(disk.ok());
  ASSERT_TRUE((*disk)->AllocatePage().ok());
  FailPointRegistry::Instance().ArmPolicy("filedisk.write",
                                          FailPointPolicy{});  // error, once
  std::string page(4096, 'r');
  EXPECT_TRUE((*disk)->WritePage(0, page.data()).ok());
  EXPECT_EQ(FailPointRegistry::Instance().fired_count("filedisk.write"), 1);
  std::string out(4096, '\0');
  EXPECT_TRUE((*disk)->ReadPage(0, out.data()).ok());
  EXPECT_EQ(out, page);
}

TEST_F(FileDiskTest, ShortWriteIsRetriedAndRepaired) {
  auto disk = FileDisk::Open(path_.string(), 4096);
  ASSERT_TRUE(disk.ok());
  ASSERT_TRUE((*disk)->AllocatePage().ok());
  FailPointPolicy policy;
  policy.action = FailPointAction::kShortWrite;
  policy.arg = 100;  // only 100 bytes land on the first attempt
  FailPointRegistry::Instance().ArmPolicy("filedisk.write", policy);
  std::string page(4096, 's');
  EXPECT_TRUE((*disk)->WritePage(0, page.data()).ok());
  std::string out(4096, '\0');
  EXPECT_TRUE((*disk)->ReadPage(0, out.data()).ok());
  EXPECT_EQ(out, page);
}

TEST_F(FileDiskTest, PersistentWriteErrorEscapesAfterRetries) {
  auto disk = FileDisk::Open(path_.string(), 4096);
  ASSERT_TRUE(disk.ok());
  ASSERT_TRUE((*disk)->AllocatePage().ok());
  FailPointPolicy policy;
  policy.max_fires = -1;  // never heals
  FailPointRegistry::Instance().ArmPolicy("filedisk.write", policy);
  std::string page(4096, 'e');
  EXPECT_TRUE((*disk)->WritePage(0, page.data()).IsInjected());
  EXPECT_GT(FailPointRegistry::Instance().fired_count("filedisk.write"), 1)
      << "bounded retry should have made several attempts";
  FailPointRegistry::Instance().Reset();
  EXPECT_TRUE((*disk)->WritePage(0, page.data()).ok());
}

TEST_F(FileDiskTest, TransientReadErrorIsRetried) {
  auto disk = FileDisk::Open(path_.string(), 4096);
  ASSERT_TRUE(disk.ok());
  ASSERT_TRUE((*disk)->AllocatePage().ok());
  std::string page(4096, 't');
  ASSERT_TRUE((*disk)->WritePage(0, page.data()).ok());
  FailPointRegistry::Instance().ArmPolicy("filedisk.read",
                                          FailPointPolicy{});
  std::string out(4096, '\0');
  EXPECT_TRUE((*disk)->ReadPage(0, out.data()).ok());
  EXPECT_EQ(out, page);
}

TEST_F(FileDiskTest, SyncFailpointInjects) {
  auto disk = FileDisk::Open(path_.string(), 4096);
  ASSERT_TRUE(disk.ok());
  EXPECT_TRUE((*disk)->Sync().ok());
  FailPointRegistry::Instance().Arm("filedisk.sync");
  EXPECT_TRUE((*disk)->Sync().IsInjected());
  EXPECT_TRUE((*disk)->Sync().ok());
}

TEST_F(FileDiskTest, TornWriteKillsProcessAndJournalRestoresAtReopen) {
  {
    auto disk = FileDisk::Open(path_.string(), 4096);
    ASSERT_TRUE(disk.ok());
    auto id = (*disk)->AllocatePage();
    ASSERT_TRUE(id.ok());
    std::string v1(4096, 'a');
    ASSERT_TRUE((*disk)->WritePage(*id, v1.data()).ok());
  }
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: overwrite page 0, tearing the slot halfway and dying.
    auto disk = FileDisk::Open(path_.string(), 4096);
    if (!disk.ok()) _exit(2);
    FailPointPolicy policy;
    policy.action = FailPointAction::kTornWrite;
    policy.arg = 2048;
    FailPointRegistry::Instance().ArmPolicy("filedisk.write", policy);
    std::string v2(4096, 'b');
    (void)(*disk)->WritePage(0, v2.data());
    _exit(3);  // unreachable: the torn write SIGKILLs
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
  // Reopen: the journal holds the whole new slot, so the torn in-place
  // write is rolled forward to v2.
  auto disk = FileDisk::Open(path_.string(), 4096);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  std::string out(4096, '\0');
  ASSERT_TRUE((*disk)->ReadPage(0, out.data()).ok());
  EXPECT_EQ(out, std::string(4096, 'b'));
}

TEST_F(FileDiskTest, CorruptMetaFileRejectedAtOpen) {
  {
    auto disk = FileDisk::Open(path_.string(), 4096);
    ASSERT_TRUE(disk.ok());
    ASSERT_TRUE((*disk)->PutMeta("key", "value-that-matters").ok());
  }
  FlipByte(path_.string() + ".meta", 6);
  auto disk = FileDisk::Open(path_.string(), 4096);
  EXPECT_FALSE(disk.ok());
  EXPECT_TRUE(disk.status().IsCorruption());
}

TEST_F(FileDiskTest, StaleMetaTmpFromCrashedStoreIsIgnored) {
  {
    auto disk = FileDisk::Open(path_.string(), 4096);
    ASSERT_TRUE(disk.ok());
    ASSERT_TRUE((*disk)->PutMeta("key", "good").ok());
  }
  {
    // A crash between writing .meta.tmp and the rename leaves a partial
    // tmp file behind; it must not shadow the committed blob.
    std::FILE* f = std::fopen((path_.string() + ".meta.tmp").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("partial garbage", f);
    std::fclose(f);
  }
  auto disk = FileDisk::Open(path_.string(), 4096);
  ASSERT_TRUE(disk.ok());
  std::string value;
  ASSERT_TRUE((*disk)->GetMeta("key", &value).ok());
  EXPECT_EQ(value, "good");
}

TEST_F(FileDiskTest, MetaFailpointInjectsWithoutTearing) {
  auto disk = FileDisk::Open(path_.string(), 4096);
  ASSERT_TRUE(disk.ok());
  ASSERT_TRUE((*disk)->PutMeta("key", "v1").ok());
  FailPointRegistry::Instance().Arm("filedisk.meta");
  EXPECT_TRUE((*disk)->PutMeta("key", "v2").IsInjected());
  // The committed blob still parses and serves the old value after a
  // reopen (the failed Put never reached the file).
  disk = FileDisk::Open(path_.string(), 4096);
  ASSERT_TRUE(disk.ok());
  std::string value;
  ASSERT_TRUE((*disk)->GetMeta("key", &value).ok());
  EXPECT_EQ(value, "v1");
}

}  // namespace
}  // namespace oib
