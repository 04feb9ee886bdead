// The buffer pool's read path: misses read with no shard mutex held,
// fetches of a page mid-read wait on its frame, failed reads are retried
// by the next fetch, and read-ahead hints (Prefetch) run on I/O workers.
// Every test drives a disk whose reads block on a gate the test opens.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace oib {
namespace {

constexpr size_t kPageSize = 4096;
constexpr size_t kStampOff = 8;  // after the page-LSN header

// An InMemoryDisk whose reads wait until the gate is open.  Counts the
// reads that entered per page, and can fail the next N reads.
class GateDisk : public DiskManager {
 public:
  GateDisk() : inner_(kPageSize) {}

  Status ReadPage(PageId page_id, char* out) override {
    {
      std::unique_lock<std::mutex> l(mu_);
      ++entered_[page_id];
      ++entered_total_;
      cv_.notify_all();
      cv_.wait(l, [&] { return open_; });
      if (fail_next_ > 0) {
        --fail_next_;
        return Status::IoError("injected read error");
      }
    }
    return inner_.ReadPage(page_id, out);
  }
  Status WritePage(PageId page_id, const char* data) override {
    return inner_.WritePage(page_id, data);
  }
  StatusOr<PageId> AllocatePage() override { return inner_.AllocatePage(); }
  StatusOr<PageId> AllocatePageNoReuse() override {
    return inner_.AllocatePageNoReuse();
  }
  Status FreePage(PageId page_id) override { return inner_.FreePage(page_id); }
  PageId PageCount() const override { return inner_.PageCount(); }
  Status PutMeta(const std::string& k, const std::string& v) override {
    return inner_.PutMeta(k, v);
  }
  Status GetMeta(const std::string& k, std::string* v) override {
    return inner_.GetMeta(k, v);
  }
  size_t page_size() const override { return kPageSize; }
  bool reads_can_block() const override { return true; }
  uint64_t reads() const override { return inner_.reads(); }
  uint64_t writes() const override { return inner_.writes(); }

  void SetOpen(bool open) {
    std::lock_guard<std::mutex> l(mu_);
    open_ = open;
    cv_.notify_all();
  }
  void FailNext(int n) {
    std::lock_guard<std::mutex> l(mu_);
    fail_next_ = n;
  }
  // Blocks until `n` reads in total have entered ReadPage.
  void WaitEntered(uint64_t n) {
    std::unique_lock<std::mutex> l(mu_);
    cv_.wait(l, [&] { return entered_total_ >= n; });
  }
  uint64_t entered(PageId page_id) {
    std::lock_guard<std::mutex> l(mu_);
    return entered_[page_id];
  }
  uint64_t entered_total() {
    std::lock_guard<std::mutex> l(mu_);
    return entered_total_;
  }

  // Allocates `n` pages, each stamped with its own id.
  std::vector<PageId> MakePages(int n) {
    std::vector<PageId> ids;
    std::vector<char> buf(kPageSize, 0);
    for (int i = 0; i < n; ++i) {
      PageId id = *inner_.AllocatePage();
      std::memset(buf.data(), 0, buf.size());
      std::snprintf(buf.data() + kStampOff, 32, "page-%u", id);
      EXPECT_TRUE(inner_.WritePage(id, buf.data()).ok());
      ids.push_back(id);
    }
    return ids;
  }

 private:
  InMemoryDisk inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = true;
  int fail_next_ = 0;
  std::map<PageId, uint64_t> entered_;
  uint64_t entered_total_ = 0;
};

std::string Stamp(PageId id) { return "page-" + std::to_string(id); }

void ExpectStamp(BufferPool* pool, PageId id) {
  auto g = pool->FetchRead(id);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_STREQ(g->data() + kStampOff, Stamp(id).c_str());
}

TEST(BufferPoolIoTest, ConcurrentMissesShareOneRead) {
  GateDisk disk;
  std::vector<PageId> ids = disk.MakePages(1);
  BufferPool pool(&disk, 8, 1);
  disk.SetOpen(false);

  std::thread first([&] { ExpectStamp(&pool, ids[0]); });
  disk.WaitEntered(1);  // the first fetch is reading, shard unlocked
  std::thread second([&] { ExpectStamp(&pool, ids[0]); });
  // The second fetch finds the frame mid-read: a hit that waits on it.
  while (pool.hits() < 1) std::this_thread::yield();
  disk.SetOpen(true);
  first.join();
  second.join();

  EXPECT_EQ(disk.entered(ids[0]), 1u);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.hits(), 1u);
}

TEST(BufferPoolIoTest, ReadsInOneShardOverlap) {
  GateDisk disk;
  std::vector<PageId> ids = disk.MakePages(2);
  BufferPool pool(&disk, 8, 1);
  disk.SetOpen(false);
  // Two misses on different pages of the same shard are both inside
  // ReadPage at once: neither holds the shard mutex across its read.
  std::thread a([&] { ExpectStamp(&pool, ids[0]); });
  std::thread b([&] { ExpectStamp(&pool, ids[1]); });
  disk.WaitEntered(2);
  disk.SetOpen(true);
  a.join();
  b.join();
}

TEST(BufferPoolIoTest, FailedReadSurfacesAndFrameIsReused) {
  GateDisk disk;
  std::vector<PageId> ids = disk.MakePages(6);
  BufferPool pool(&disk, BufferPool::kMinPagesPerShard, 1);

  disk.FailNext(1);
  auto bad = pool.FetchRead(ids[0]);
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsIoError()) << bad.status().ToString();
  // The next fetch reads the page again and succeeds.
  ExpectStamp(&pool, ids[0]);
  EXPECT_EQ(disk.entered(ids[0]), 2u);

  // A failed hinted read is retried by the fetch; a failure of that
  // retry reaches the caller, and the read after it succeeds.
  disk.FailNext(2);
  const uint64_t before = disk.entered_total();
  pool.Prefetch(ids[1]);
  disk.WaitEntered(before + 1);
  auto bad2 = pool.FetchRead(ids[1]);
  ASSERT_FALSE(bad2.ok());
  EXPECT_TRUE(bad2.status().IsIoError());
  ExpectStamp(&pool, ids[1]);
  EXPECT_EQ(disk.entered(ids[1]), 3u);

  // No frame or pin leaked: every frame of the 4-frame shard can still
  // be held at once.
  std::vector<ReadPageGuard> held;
  for (int i = 2; i < 6; ++i) {
    auto g = pool.FetchRead(ids[i]);
    ASSERT_TRUE(g.ok()) << g.status().ToString();
    held.push_back(std::move(*g));
  }
}

TEST(BufferPoolIoTest, DiscardAllWaitsForHintedReads) {
  GateDisk disk;
  std::vector<PageId> ids = disk.MakePages(3);
  BufferPool pool(&disk, 8, 1);
  disk.SetOpen(false);
  for (PageId id : ids) pool.Prefetch(id);
  EXPECT_EQ(pool.prefetch_issued(), 3u);
  disk.WaitEntered(1);

  std::atomic<bool> discarded{false};
  std::thread t([&] {
    pool.DiscardAll();
    discarded.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(discarded.load());  // reads are still filling frames
  disk.SetOpen(true);
  t.join();
  EXPECT_TRUE(discarded.load());
  for (PageId id : ids) ExpectStamp(&pool, id);
}

TEST(BufferPoolIoTest, DestructionWaitsForHintedReads) {
  GateDisk disk;
  std::vector<PageId> ids = disk.MakePages(12);
  auto pool = std::make_unique<BufferPool>(&disk, 16, 1);
  disk.SetOpen(false);
  for (PageId id : ids) pool->Prefetch(id);
  disk.WaitEntered(1);
  std::thread opener([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    disk.SetOpen(true);
  });
  pool.reset();  // joins the workers after they drain the queue
  opener.join();
  EXPECT_EQ(disk.entered_total(), ids.size());
}

TEST(BufferPoolIoTest, HintsNeverMakeAFetchBusy) {
  GateDisk disk;
  std::vector<PageId> ids = disk.MakePages(6);
  BufferPool pool(&disk, BufferPool::kMinPagesPerShard, 1);
  disk.SetOpen(false);
  // Hints bind every frame of the shard; one more hint is dropped.
  for (int i = 0; i < 5; ++i) pool.Prefetch(ids[i]);
  EXPECT_EQ(pool.prefetch_issued(), BufferPool::kMinPagesPerShard);

  // A fetch needing a frame waits for a hinted read instead of failing.
  std::thread fetch([&] { ExpectStamp(&pool, ids[5]); });
  disk.WaitEntered(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  disk.SetOpen(true);
  fetch.join();
  EXPECT_EQ(pool.prefetch_wasted(), 1u);  // the frame the fetch took
}

TEST(BufferPoolIoTest, HintsAreOffWhenReadsCannotBlock) {
  InMemoryDisk disk(kPageSize);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(disk.AllocatePage().ok());
  BufferPool pool(&disk, 64, 1);
  EXPECT_EQ(pool.ReadAheadWindow(), 0u);
  pool.Prefetch(1);
  EXPECT_EQ(pool.prefetch_issued(), 0u);
  EXPECT_EQ(disk.reads(), 0u);

  disk.set_read_delay_us(1);
  EXPECT_EQ(pool.ReadAheadWindow(), 64u / 8);
  pool.Prefetch(1);
  pool.Prefetch(1);  // already being read (or resident): dropped
  EXPECT_EQ(pool.prefetch_issued(), 1u);
  ASSERT_TRUE(pool.FetchRead(1).ok());
  EXPECT_EQ(pool.prefetch_used(), 1u);
  EXPECT_EQ(disk.reads(), 1u);
}

// Hinted reads, fetches and evictions from several threads over a pool
// much smaller than the working set (runs under the TSan CI job).
TEST(BufferPoolIoStressTest, HintsFetchesAndEvictionsInterleave) {
  constexpr int kPages = 96;
  constexpr int kThreads = 4;
  constexpr int kOps = 3000;
  GateDisk disk;
  std::vector<PageId> ids = disk.MakePages(kPages);
  BufferPool pool(&disk, 32, 4);
  std::vector<std::thread> threads;
  std::atomic<int> bad{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint32_t x = 12345u + static_cast<uint32_t>(t);
      for (int i = 0; i < kOps; ++i) {
        x = x * 1664525u + 1013904223u;
        PageId id = ids[(x >> 8) % kPages];
        if ((x & 3) == 0) {
          pool.Prefetch(id);
          continue;
        }
        auto g = pool.FetchRead(id);
        if (!g.ok() || Stamp(id) != g->data() + kStampOff) bad.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(pool.prefetch_issued(), 0u);
  EXPECT_LE(pool.prefetch_used() + pool.prefetch_wasted(),
            pool.prefetch_issued());
}

}  // namespace
}  // namespace oib
