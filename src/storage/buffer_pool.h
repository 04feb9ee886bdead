// BufferPool: fixed-size cache of pages with pin/unpin, CLOCK eviction, and
// the write-ahead-logging rule (a dirty page is written to disk only after
// the log is flushed up to that page's LSN).
//
// The pool is split into power-of-two *shards* keyed by PageId.  Each shard
// owns a slice of the frames with its own mutex, page table, free list and
// CLOCK hand, so fetches on different pages proceed in parallel instead of
// funnelling through one process-wide lock; a fetch hit touches one ref bit
// (the CLOCK "recently used" signal) instead of splicing an LRU list.
// Unpin is lock-free (atomic pin count + dirty bit).
//
// Page reads run with no shard mutex held: a miss binds a frame under the
// mutex and marks it *reading* (Page::Io), then reads with the mutex
// dropped, so reads in one shard overlap; a fetch that finds a frame
// mid-read waits on that frame.  FlushPage/FlushAll likewise write with no
// shard mutex held.  Only evicting a dirty victim writes under it.
//
// Prefetch is the read-ahead hint of sequential readers (restart redo,
// B+-tree leaf scans, heap chain walks, build scans): it binds the frame
// in the caller's thread and hands the read to one of kIoWorkers threads.
// Hints are dropped, never failed, and are off on a device whose reads
// cannot block (DiskManager::reads_can_block).
//
// RAII page guards combine pin + latch acquisition in the safe order
// (pin first, then latch), so an evictable frame can never be latched.

#ifndef OIB_STORAGE_BUFFER_POOL_H_
#define OIB_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <functional>
#include <pthread.h>

#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace oib {

class BufferPool;

// Shared-latched, pinned view of a page.  Movable, not copyable.
class ReadPageGuard {
 public:
  ReadPageGuard() = default;
  ReadPageGuard(BufferPool* pool, Page* page) : pool_(pool), page_(page) {}
  ReadPageGuard(ReadPageGuard&& o) noexcept { *this = std::move(o); }
  ReadPageGuard& operator=(ReadPageGuard&& o) noexcept;
  ~ReadPageGuard() { Release(); }

  ReadPageGuard(const ReadPageGuard&) = delete;
  ReadPageGuard& operator=(const ReadPageGuard&) = delete;

  bool valid() const { return page_ != nullptr; }
  const char* data() const { return page_->data(); }
  PageId page_id() const { return page_->page_id(); }
  Lsn page_lsn() const { return page_->page_lsn(); }

  // Unlatches and unpins early (idempotent).
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  Page* page_ = nullptr;
};

// Exclusively-latched, pinned view of a page.  Marks the page dirty on
// release if the holder declared a modification via MarkDirty()/set_page_lsn.
class WritePageGuard {
 public:
  WritePageGuard() = default;
  WritePageGuard(BufferPool* pool, Page* page) : pool_(pool), page_(page) {}
  WritePageGuard(WritePageGuard&& o) noexcept { *this = std::move(o); }
  WritePageGuard& operator=(WritePageGuard&& o) noexcept;
  ~WritePageGuard() { Release(); }

  WritePageGuard(const WritePageGuard&) = delete;
  WritePageGuard& operator=(const WritePageGuard&) = delete;

  bool valid() const { return page_ != nullptr; }
  char* data() { return page_->data(); }
  const char* data() const { return page_->data(); }
  PageId page_id() const { return page_->page_id(); }
  Lsn page_lsn() const { return page_->page_lsn(); }

  void MarkDirty() { dirty_ = true; }
  void set_page_lsn(Lsn lsn) {
    page_->set_page_lsn(lsn);
    dirty_ = true;
  }

  void Release();

 private:
  BufferPool* pool_ = nullptr;
  Page* page_ = nullptr;
  bool dirty_ = false;
};

class BufferPool {
 public:
  // Every shard keeps at least this many frames; a shard request that
  // would leave shards smaller is halved until it fits (tiny test pools
  // still want eviction to work inside each shard).
  static constexpr size_t kMinPagesPerShard = 4;
  // Read-ahead: I/O worker threads (started by the first hint), the
  // depth of their request queue, and the cap on ReadAheadWindow.
  static constexpr size_t kIoWorkers = 8;
  static constexpr size_t kIoQueueDepth = 256;
  static constexpr size_t kMaxReadAhead = 64;

  // `shards` must be a power of two; 0 = auto (min(16, hw_concurrency)).
  BufferPool(DiskManager* disk, size_t pool_pages, size_t shards = 0);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Called with a page LSN before a dirty page with that LSN is written to
  // disk; must flush the log at least that far (the WAL rule).
  void SetWalFlushHook(std::function<Status(Lsn)> hook) {
    wal_flush_ = std::move(hook);
  }

  // Guard-based accessors (preferred).
  StatusOr<ReadPageGuard> FetchRead(PageId page_id);
  StatusOr<WritePageGuard> FetchWrite(PageId page_id);
  // Allocates a fresh page and returns it exclusively latched.
  StatusOr<WritePageGuard> NewPage(PageId* page_id);
  // Same, but never reuses a freed page id (see DiskManager).
  StatusOr<WritePageGuard> NewPageNoReuse(PageId* page_id);

  // Writes one page / all dirty pages to disk (respecting the WAL rule).
  // Neither holds a shard mutex across the disk write or the WAL hook.
  Status FlushPage(PageId page_id);
  Status FlushAll();

  // Crash simulation: drops every frame without flushing.  Pins must be
  // released first (asserted).  Waits for hinted reads still in flight.
  void DiscardAll();

  // Read-ahead hint: starts reading `page_id` into a frame in the
  // background, so that a later fetch finds it resident (or waits on the
  // read already under way).  Dropped when the page is resident or being
  // read, when the disk's reads cannot block, or when its shard has no
  // frame to evict; a hint never makes a fetch fail or return Busy.  A
  // hinted read that fails leaves nothing behind but the next fetch's
  // own read.  Blocks only when kIoQueueDepth hints are already queued.
  void Prefetch(PageId page_id);

  // How many pages a sequential reader should hint ahead of its position:
  // min(kMaxReadAhead, pool pages / 8), or 0 (no read-ahead) when the
  // disk's reads cannot block.
  size_t ReadAheadWindow() const;

  // Read-ahead along a list of page ids that a reader walks in order:
  // hints ids[next, next + ReadAheadWindow()), where ids[next] is the page
  // the reader fetches next, skipping ids[0, *hinted) (hinted before), and
  // advances *hinted past the last id hinted.
  void ReadAhead(std::span<const PageId> ids, size_t next, size_t* hinted);

  DiskManager* disk() { return disk_; }

  size_t shard_count() const { return shards_.size(); }

  // Cache-effectiveness counters, summed over the per-shard cells.  A hit
  // is a fetch served from a resident frame; a miss reads the page from
  // disk; fresh-page allocations count as neither.
  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t evictions() const;
  // Read-ahead counters: hints that bound a frame and queued a read
  // (issued), hinted frames fetched before eviction (used), and hinted
  // frames evicted without a fetch (wasted).
  uint64_t prefetch_issued() const;
  uint64_t prefetch_used() const;
  uint64_t prefetch_wasted() const;

  // Registers bufferpool.{hits,misses,evictions} and
  // bufferpool.prefetch_{issued,used,wasted} with `registry` (owner =
  // this pool; the destructor detaches them).  Exported as value callbacks
  // summing the per-shard counters.
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  friend class ReadPageGuard;
  friend class WritePageGuard;

  // One lock domain: a slice of the frames plus the bookkeeping for the
  // pages resident in them.  alignas keeps neighbouring shards' mutexes
  // and clock hands off each other's cache lines.
  struct alignas(obs::kCacheLineSize) Shard {
    sync::Mutex mu{sync::LockRank::kBufferShard, "bufferpool.shard.mu"};
    // page -> frame index
    std::unordered_map<PageId, size_t> table OIB_GUARDED_BY(mu);
    std::vector<std::unique_ptr<Page>> frames OIB_GUARDED_BY(mu);
    std::vector<size_t> free_list OIB_GUARDED_BY(mu);  // free frame indexes
    size_t hand OIB_GUARDED_BY(mu) = 0;  // CLOCK sweep position
    obs::Counter hits;
    obs::Counter misses;
    obs::Counter evictions;
    obs::Counter prefetch_issued;
    obs::Counter prefetch_used;
    obs::Counter prefetch_wasted;
  };

  // A hinted read handed to the I/O workers: the frame was bound (and
  // marked reading) by Prefetch, so a worker only fills and publishes it.
  struct IoRequest {
    PageId page_id;
    Page* page;
  };

  Shard& ShardFor(PageId page_id) {
    return *shards_[static_cast<size_t>(page_id) & shard_mask_];
  }

  StatusOr<WritePageGuard> BindNewPage(PageId page_id);
  // Returns `page_id` pinned with its contents read (the shared body of
  // FetchRead/FetchWrite).  Takes s.mu only to find or bind the frame.
  StatusOr<Page*> FetchPage(PageId page_id);
  // Reads the page into `page`, which the caller pinned and marked
  // reading; on failure marks it failed and drops the pin.
  StatusOr<Page*> ReadInto(PageId page_id, Page* page);
  // Binds a frame to `page_id`, evicting if needed; ref bit set, unpinned.
  // `wait_for_reads`: see EvictOne.
  StatusOr<Page*> BindFrame(Shard& s, PageId page_id, bool wait_for_reads)
      OIB_REQUIRES(s.mu);
  StatusOr<Page*> PinNewFrame(Shard& s, PageId page_id) OIB_REQUIRES(s.mu);
  // Frees one frame into s.free_list.  A frame whose read is in flight
  // cannot be evicted; when no other frame can, `wait_for_reads` waits
  // for such a read and sweeps again before returning Busy (Prefetch
  // passes false: a hint is dropped rather than waited for).
  Status EvictOne(Shard& s, bool wait_for_reads) OIB_REQUIRES(s.mu);
  // Lock-free: atomic dirty bit + pin count (release; eviction acquires).
  void Unpin(Page* page, bool dirty);
  // Queues a hinted read, starting the workers on first use; reads it
  // in the caller's thread if no worker can be started.
  void SubmitRead(PageId page_id, Page* page);
  void IoWorkerLoop();

  DiskManager* disk_;
  const size_t pool_pages_;
  std::function<Status(Lsn)> wal_flush_;

  std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_mask_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;  // set by AttachMetrics

  // Read-ahead queue: a fixed ring, so that the workers never allocate.
  // A thread's first malloc or free binds it to a malloc arena, and a new
  // arena fills with the next threads' allocations while older arenas
  // keep their freed memory resident (perfbench's peak RSS grew round
  // over round).  The workers are plain pthreads for the same reason:
  // std::thread frees its start state in the new thread.
  sync::Mutex io_mu_{sync::LockRank::kBufferIo, "bufferpool.io.mu"};
  sync::CondVar io_ready_;  // a request was queued, or stop
  sync::CondVar io_space_;  // a request was taken
  std::vector<IoRequest> io_ring_ OIB_GUARDED_BY(io_mu_);
  size_t io_head_ OIB_GUARDED_BY(io_mu_) = 0;
  size_t io_queued_ OIB_GUARDED_BY(io_mu_) = 0;
  bool io_stop_ OIB_GUARDED_BY(io_mu_) = false;
  std::vector<pthread_t> io_workers_ OIB_GUARDED_BY(io_mu_);
};

}  // namespace oib

#endif  // OIB_STORAGE_BUFFER_POOL_H_
