#include "storage/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <thread>  // std::thread::hardware_concurrency

#include "common/failpoint.h"

namespace oib {

// ----------------------------- guards -----------------------------

ReadPageGuard& ReadPageGuard::operator=(ReadPageGuard&& o) noexcept {
  if (this != &o) {
    Release();
    pool_ = o.pool_;
    page_ = o.page_;
    o.pool_ = nullptr;
    o.page_ = nullptr;
  }
  return *this;
}

void ReadPageGuard::Release() {
  if (page_ != nullptr) {
    page_->UnlatchShared();
    pool_->Unpin(page_, /*dirty=*/false);
    page_ = nullptr;
    pool_ = nullptr;
  }
}

WritePageGuard& WritePageGuard::operator=(WritePageGuard&& o) noexcept {
  if (this != &o) {
    Release();
    pool_ = o.pool_;
    page_ = o.page_;
    dirty_ = o.dirty_;
    o.pool_ = nullptr;
    o.page_ = nullptr;
    o.dirty_ = false;
  }
  return *this;
}

void WritePageGuard::Release() {
  if (page_ != nullptr) {
    page_->UnlatchExclusive();
    pool_->Unpin(page_, dirty_);
    page_ = nullptr;
    pool_ = nullptr;
    dirty_ = false;
  }
}

// --------------------------- BufferPool ---------------------------

namespace {

size_t PickShardCount(size_t requested, size_t pool_pages) {
  size_t shards = requested;
  if (shards == 0) {
    size_t hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = 1;
    shards = 16 < hw ? 16 : hw;
    // Round down to a power of two (hardware_concurrency need not be one).
    while ((shards & (shards - 1)) != 0) shards &= shards - 1;
  }
  while (shards > 1 &&
         pool_pages / shards < BufferPool::kMinPagesPerShard) {
    shards /= 2;
  }
  return shards;
}

}  // namespace

BufferPool::BufferPool(DiskManager* disk, size_t pool_pages, size_t shards)
    : disk_(disk), pool_pages_(pool_pages) {
  size_t n = PickShardCount(shards, pool_pages);
  shard_mask_ = n - 1;
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    // Shard i holds frames for pages with (page_id & mask) == i; spread
    // the remainder so shard sizes differ by at most one frame.
    size_t frames = pool_pages / n + (i < pool_pages % n ? 1 : 0);
    shard->frames.reserve(frames);
    shard->free_list.reserve(frames);
    for (size_t f = 0; f < frames; ++f) {
      shard->frames.push_back(std::make_unique<Page>(disk->page_size()));
      shard->free_list.push_back(frames - 1 - f);
    }
    shards_.push_back(std::move(shard));
  }
}

BufferPool::~BufferPool() {
  // Workers drain the queue before they exit, so no hinted read is left
  // writing into a frame about to be freed.
  std::vector<pthread_t> workers;
  {
    sync::MutexLock g(&io_mu_);
    io_stop_ = true;
    workers.swap(io_workers_);
  }
  io_ready_.NotifyAll();
  for (pthread_t t : workers) pthread_join(t, nullptr);
  if (metrics_ != nullptr) metrics_->DetachOwner(this);
}

uint64_t BufferPool::hits() const {
  uint64_t total = 0;
  for (const auto& s : shards_) total += s->hits.value();
  return total;
}

uint64_t BufferPool::misses() const {
  uint64_t total = 0;
  for (const auto& s : shards_) total += s->misses.value();
  return total;
}

uint64_t BufferPool::evictions() const {
  uint64_t total = 0;
  for (const auto& s : shards_) total += s->evictions.value();
  return total;
}

uint64_t BufferPool::prefetch_issued() const {
  uint64_t total = 0;
  for (const auto& s : shards_) total += s->prefetch_issued.value();
  return total;
}

uint64_t BufferPool::prefetch_used() const {
  uint64_t total = 0;
  for (const auto& s : shards_) total += s->prefetch_used.value();
  return total;
}

uint64_t BufferPool::prefetch_wasted() const {
  uint64_t total = 0;
  for (const auto& s : shards_) total += s->prefetch_wasted.value();
  return total;
}

void BufferPool::AttachMetrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  registry->RegisterValueFn(
      "bufferpool.hits", [this] { return hits(); }, this);
  registry->RegisterValueFn(
      "bufferpool.misses", [this] { return misses(); }, this);
  registry->RegisterValueFn(
      "bufferpool.evictions", [this] { return evictions(); }, this);
  registry->RegisterValueFn(
      "bufferpool.prefetch_issued", [this] { return prefetch_issued(); },
      this);
  registry->RegisterValueFn(
      "bufferpool.prefetch_used", [this] { return prefetch_used(); }, this);
  registry->RegisterValueFn(
      "bufferpool.prefetch_wasted", [this] { return prefetch_wasted(); },
      this);
  // Per-shard cells so the time-series sampler can plot the hit rate of
  // each lock domain separately (a single hot shard hides behind the sum).
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard* shard = shards_[i].get();
    std::string prefix = "bufferpool.shard" + std::to_string(i);
    registry->RegisterValueFn(
        prefix + ".hits", [shard] { return shard->hits.value(); }, this);
    registry->RegisterValueFn(
        prefix + ".misses", [shard] { return shard->misses.value(); }, this);
    registry->RegisterValueFn(
        prefix + ".evictions", [shard] { return shard->evictions.value(); },
        this);
  }
}

StatusOr<ReadPageGuard> BufferPool::FetchRead(PageId page_id) {
  auto r = FetchPage(page_id);
  if (!r.ok()) return r.status();
  (*r)->LatchShared();
  return ReadPageGuard(this, *r);
}

StatusOr<WritePageGuard> BufferPool::FetchWrite(PageId page_id) {
  auto r = FetchPage(page_id);
  if (!r.ok()) return r.status();
  (*r)->LatchExclusive();
  return WritePageGuard(this, *r);
}

StatusOr<WritePageGuard> BufferPool::NewPage(PageId* page_id) {
  auto alloc = disk_->AllocatePage();
  if (!alloc.ok()) return alloc.status();
  *page_id = *alloc;
  return BindNewPage(*page_id);
}

StatusOr<WritePageGuard> BufferPool::NewPageNoReuse(PageId* page_id) {
  auto alloc = disk_->AllocatePageNoReuse();
  if (!alloc.ok()) return alloc.status();
  *page_id = *alloc;
  return BindNewPage(*page_id);
}

StatusOr<WritePageGuard> BufferPool::BindNewPage(PageId page_id) {
  Shard& s = ShardFor(page_id);
  Page* page;
  {
    sync::MutexLock g(&s.mu);
    auto r = PinNewFrame(s, page_id);
    if (!r.ok()) return r.status();
    page = *r;
    // Fresh page: contents are zeroes; no disk read needed.
  }
  page->LatchExclusive();
  WritePageGuard guard(this, page);
  guard.MarkDirty();
  return guard;
}

StatusOr<Page*> BufferPool::FetchPage(PageId page_id) {
  Shard& s = ShardFor(page_id);
  Page* page;
  bool claimed = true;  // this fetch reads the page
  {
    sync::MutexLock g(&s.mu);
    auto it = s.table.find(page_id);
    if (it == s.table.end()) {
      auto r = PinNewFrame(s, page_id);
      if (!r.ok()) return r.status();
      page = *r;
    } else {
      page = s.frames[it->second].get();
      page->Pin();  // keeps the frame bound while this fetch waits below
      page->set_ref(true);
      if (page->prefetched()) {
        page->set_prefetched(false);
        s.prefetch_used.Inc();
      }
      // A failed last read is retried by this fetch; otherwise the page
      // is resident or another thread's read of it is under way.
      claimed = page->io() == Page::Io::kFailed;
    }
    if (claimed) {
      page->BeginRead();
      s.misses.Inc();
    } else {
      s.hits.Inc();
    }
  }
  while (!claimed) {
    page->WaitRead();
    if (page->io() == Page::Io::kReady) return page;
    // The read waited for failed.  The first waiter back reads the page
    // again; the others wait for that read.
    sync::MutexLock g(&s.mu);
    claimed = page->io() == Page::Io::kFailed;
    if (claimed) {
      page->BeginRead();
      s.misses.Inc();
    }
  }
  return ReadInto(page_id, page);
}

StatusOr<Page*> BufferPool::ReadInto(PageId page_id, Page* page) {
  Status st = disk_->ReadPage(page_id, page->data());
  page->EndRead(st.ok());
  if (!st.ok()) {
    // The frame stays bound in the failed state (evictable once the pin
    // is gone); the next fetch of this page reads it again.
    Unpin(page, /*dirty=*/false);
    return st;
  }
  return page;
}

StatusOr<Page*> BufferPool::BindFrame(Shard& s, PageId page_id,
                                      bool wait_for_reads) {
  if (s.free_list.empty()) {
    OIB_RETURN_IF_ERROR(EvictOne(s, wait_for_reads));
  }
  size_t idx = s.free_list.back();
  s.free_list.pop_back();
  Page* page = s.frames[idx].get();
  page->Reset(page_id);
  page->set_ref(true);
  s.table[page_id] = idx;
  return page;
}

StatusOr<Page*> BufferPool::PinNewFrame(Shard& s, PageId page_id) {
  auto r = BindFrame(s, page_id, /*wait_for_reads=*/true);
  if (r.ok()) (*r)->Pin();
  return r;
}

void BufferPool::Prefetch(PageId page_id) {
  if (!disk_->reads_can_block()) return;
  Shard& s = ShardFor(page_id);
  Page* page;
  {
    sync::MutexLock g(&s.mu);
    if (s.table.count(page_id) != 0) return;  // resident or being read
    auto r = BindFrame(s, page_id, /*wait_for_reads=*/false);
    if (!r.ok()) return;  // nothing evictable: drop the hint
    page = *r;
    // Unpinned: a frame mid-read is never evicted (EvictOne skips it), and
    // a fetch that finds it pins it before waiting.
    page->BeginRead();
    page->set_prefetched(true);
    s.prefetch_issued.Inc();
  }
  SubmitRead(page_id, page);
}

size_t BufferPool::ReadAheadWindow() const {
  if (!disk_->reads_can_block()) return 0;
  return std::min(kMaxReadAhead, pool_pages_ / 8);
}

void BufferPool::ReadAhead(std::span<const PageId> ids, size_t next,
                           size_t* hinted) {
  const size_t to = std::min(ids.size(), next + ReadAheadWindow());
  for (size_t i = std::max(*hinted, next); i < to; ++i) Prefetch(ids[i]);
  *hinted = std::max(*hinted, to);
}

void BufferPool::SubmitRead(PageId page_id, Page* page) {
  {
    sync::MutexLock g(&io_mu_);
    if (io_workers_.empty()) {
      io_ring_.resize(kIoQueueDepth);
      auto main = [](void* pool) -> void* {
        static_cast<BufferPool*>(pool)->IoWorkerLoop();
        return nullptr;
      };
      for (size_t i = 0; i < kIoWorkers; ++i) {
        pthread_t t;
        if (pthread_create(&t, nullptr, main, this) != 0) break;
        io_workers_.push_back(t);
      }
    }
    if (!io_workers_.empty()) {
      while (io_queued_ == kIoQueueDepth) io_space_.Wait(io_mu_);
      io_ring_[(io_head_ + io_queued_) % kIoQueueDepth] = {page_id, page};
      ++io_queued_;
      io_ready_.NotifyOne();
      return;
    }
  }
  page->EndRead(disk_->ReadPage(page_id, page->data()).ok());
}

void BufferPool::IoWorkerLoop() {
  // Reads into a frame Prefetch already bound, then publishes it.  No page
  // table, no shard mutex, no allocation.
  for (;;) {
    IoRequest req;
    {
      sync::MutexLock g(&io_mu_);
      while (io_queued_ == 0 && !io_stop_) io_ready_.Wait(io_mu_);
      if (io_queued_ == 0) return;  // stopping, queue drained
      req = io_ring_[io_head_];
      io_head_ = (io_head_ + 1) % kIoQueueDepth;
      --io_queued_;
    }
    io_space_.NotifyOne();
    Status st = disk_->ReadPage(req.page_id, req.page->data());
    req.page->EndRead(st.ok());
  }
}

Status BufferPool::EvictOne(Shard& s, bool wait_for_reads) {
  // CLOCK sweep: a frame whose ref bit is set gets a second chance (bit
  // cleared, hand moves on); an unpinned frame with a clear bit is the
  // victim.  Two full revolutions guarantee every unpinned frame has had
  // its bit cleared once, so finding nothing means everything is pinned.
  //
  // The dirty-victim write-back (WAL hook + disk write) runs under this
  // shard's mutex: it stalls only fetches hashing to the same shard, not
  // the whole pool, and keeps the frame from being re-fetched mid-write.
  //
  // A frame whose read is in flight is skipped: a miss's frame is pinned
  // by its reader, a hinted one holds no pin but cannot be evicted either.
  // When the sweep finds no victim and `wait_for_reads`, it waits for one
  // such read and sweeps again before reporting Busy — the pool behaves as
  // if the read had been done under s.mu, so neither reads outside the
  // mutex nor hints turn a fetch into Busy.  Waiting under s.mu is safe:
  // readers never take a shard mutex, and no read can start in this shard
  // while it is held, so the loop ends.
  const size_t n = s.frames.size();
  for (;;) {
    Page* in_flight = nullptr;
    for (size_t step = 0; step < 2 * n; ++step) {
      size_t idx = s.hand;
      s.hand = (s.hand + 1) % n;
      Page* page = s.frames[idx].get();
      if (page->page_id() == kInvalidPageId) continue;  // free frame
      if (page->io() == Page::Io::kReading) {
        in_flight = page;
        continue;
      }
      if (page->pin_count() > 0) continue;
      if (page->ref()) {
        page->set_ref(false);
        continue;
      }
      PageId victim = page->page_id();
      if (page->is_dirty()) {
        // An injected write-back failure keeps the dirty page resident
        // (the fetch that triggered eviction fails instead), so no update
        // is lost — the page is written again on the next eviction attempt.
        OIB_FAIL_POINT("bufferpool.writeback");
        if (wal_flush_) OIB_RETURN_IF_ERROR(wal_flush_(page->page_lsn()));
        OIB_RETURN_IF_ERROR(disk_->WritePage(victim, page->data()));
      }
      if (page->prefetched()) s.prefetch_wasted.Inc();
      s.table.erase(victim);
      page->set_page_id(kInvalidPageId);
      s.free_list.push_back(idx);
      s.evictions.Inc();
      return Status::OK();
    }
    if (in_flight == nullptr || !wait_for_reads) {
      return Status::Busy("buffer pool shard exhausted: all pages pinned");
    }
    in_flight->WaitRead();
  }
}

void BufferPool::Unpin(Page* page, bool dirty) {
  // Order matters: the dirty bit must be visible before the pin count
  // drops (Unpin is a release; the evictor's pin_count() read acquires).
  if (dirty) page->set_dirty(true);
  page->Unpin();
}

Status BufferPool::FlushPage(PageId page_id) {
  Shard& s = ShardFor(page_id);
  Page* page;
  {
    sync::MutexLock g(&s.mu);
    auto it = s.table.find(page_id);
    if (it == s.table.end()) return Status::OK();  // not cached
    page = s.frames[it->second].get();
    page->Pin();
  }
  page->LatchShared();
  Status st;
  if (page->is_dirty()) {
    // Not the OIB_FAIL_POINT macro: an early return here would leak the
    // latch and pin, so the hit folds into `st` and unwinds normally.
    static FailPoint* const writeback_fp =
        FailPointRegistry::Instance().GetOrCreate("bufferpool.writeback");
    if (writeback_fp->armed()) st = writeback_fp->Act();
    if (st.ok() && wal_flush_) st = wal_flush_(page->page_lsn());
    if (st.ok()) st = disk_->WritePage(page_id, page->data());
    if (st.ok()) page->set_dirty(false);
  }
  page->UnlatchShared();
  Unpin(page, /*dirty=*/false);
  return st;
}

Status BufferPool::FlushAll() {
  // Collect resident ids per shard under that shard's mutex, then flush
  // them one by one: the I/O (and the WAL-flush hook it may invoke) runs
  // with no shard lock held.
  for (auto& shard : shards_) {
    std::vector<PageId> cached;
    {
      sync::MutexLock g(&shard->mu);
      cached.reserve(shard->table.size());
      for (const auto& [pid, idx] : shard->table) {
        (void)idx;
        cached.push_back(pid);
      }
    }
    for (PageId pid : cached) {
      OIB_RETURN_IF_ERROR(FlushPage(pid));
    }
  }
  return Status::OK();
}

void BufferPool::DiscardAll() {
  for (auto& shard : shards_) {
    sync::MutexLock g(&shard->mu);
    for (const auto& [pid, idx] : shard->table) {
      (void)pid;
      shard->frames[idx]->WaitRead();  // a hinted read may still be filling it
      assert(shard->frames[idx]->pin_count() == 0 && "discard with live pins");
    }
    shard->table.clear();
    shard->free_list.clear();
    shard->hand = 0;
    for (size_t i = 0; i < shard->frames.size(); ++i) {
      shard->frames[i]->Reset(kInvalidPageId);
      shard->free_list.push_back(shard->frames.size() - 1 - i);
    }
  }
}

}  // namespace oib
