// DiskManager: the durable page store underneath the buffer pool.
//
// Two implementations:
//  * InMemoryDisk — a vector of page images.  "Durable" here means "survives
//    Engine::SimulateCrash()", which discards only volatile state (buffer
//    pool, unflushed log).  This is the substrate for all crash/restart
//    tests and benches; it exercises exactly the recovery code paths the
//    paper describes while staying deterministic and fast.
//  * FileDisk — a real file accessed with pread/pwrite; the production
//    durability path, hardened against the faults the crash harness
//    injects (tests/crash/):
//      - every on-disk page slot is [page bytes | CRC32C | page-id echo],
//        so a torn or misdirected write is detected on read;
//      - every page write goes through a single-slot double-write journal
//        (`<path>.dw`) first, so a write torn by a crash is restored from
//        the journal at the next Open;
//      - short writes and EINTR are retried at the syscall loop, and
//        failpoint-injected transient errors are retried with bounded
//        exponential backoff before an error escapes to the caller;
//      - the metadata blob is CRC-protected and replaced atomically
//        (write tmp, fsync, rename).
//    Durability model: the harness kills with SIGKILL, so bytes accepted
//    by write() survive (the OS page cache outlives the process); fsync
//    matters only for power loss, which the harness does not simulate.
//    FileDisk still fsyncs at Sync(), after double-write restore, and on
//    file growth past a sync boundary, to keep the power-loss window
//    bounded.
//
// Both also expose a tiny side-channel metadata blob (PutMeta/GetMeta) used
// to persist the catalog and builder checkpoints; writes to it are atomic
// with respect to crashes, simulated or real.

#ifndef OIB_STORAGE_DISK_MANAGER_H_
#define OIB_STORAGE_DISK_MANAGER_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "common/types.h"

namespace oib {

class DiskManager {
 public:
  virtual ~DiskManager() = default;

  virtual Status ReadPage(PageId page_id, char* out) = 0;
  virtual Status WritePage(PageId page_id, const char* data) = 0;

  // Allocates a fresh page id (possibly reusing a freed one).
  virtual StatusOr<PageId> AllocatePage() = 0;
  // Allocates a page id strictly greater than every id allocated so far.
  // Heap files use this so that RID order agrees with scan (chain) order,
  // which SF's Current-RID visibility test requires.
  virtual StatusOr<PageId> AllocatePageNoReuse() = 0;
  // Returns a page to the allocator.  Used by SF restart to discard index
  // pages allocated after the last IB checkpoint (paper section 3.2.4).
  virtual Status FreePage(PageId page_id) = 0;

  // Highest page id ever allocated + 1 (freed pages included).
  virtual PageId PageCount() const = 0;

  virtual Status PutMeta(const std::string& key, const std::string& value) = 0;
  virtual Status GetMeta(const std::string& key, std::string* value) = 0;

  // Forces everything written so far down to stable storage.  A no-op for
  // disks whose writes are immediately "durable" (InMemoryDisk).
  virtual Status Sync() { return Status::OK(); }

  virtual size_t page_size() const = 0;

  // Whether a page read can keep the calling thread waiting on the device,
  // so that reads issued together finish sooner than one after another.
  // The buffer pool reads ahead only on such a device: where a read is a
  // memcpy, or reads cannot overlap, handing it to another thread costs
  // more than doing it.  Off unless a device says so.
  virtual bool reads_can_block() const { return false; }

  // I/O counters (benches report these as proxies for disk cost).
  virtual uint64_t reads() const = 0;
  virtual uint64_t writes() const = 0;
};

class InMemoryDisk : public DiskManager {
 public:
  explicit InMemoryDisk(size_t page_size) : page_size_(page_size) {}

  // Benches simulate an I/O-bound environment (the paper's "several days
  // to scan a petabyte table") by charging a fixed latency per page read.
  void set_read_delay_us(uint32_t us) {
    read_delay_us_.store(us, std::memory_order_relaxed);
  }

  Status ReadPage(PageId page_id, char* out) override;
  Status WritePage(PageId page_id, const char* data) override;
  StatusOr<PageId> AllocatePage() override;
  StatusOr<PageId> AllocatePageNoReuse() override;
  Status FreePage(PageId page_id) override;
  PageId PageCount() const override;
  Status PutMeta(const std::string& key, const std::string& value) override;
  Status GetMeta(const std::string& key, std::string* value) override;
  size_t page_size() const override { return page_size_; }
  // Only a charged read delay makes a read wait.
  bool reads_can_block() const override {
    return read_delay_us_.load(std::memory_order_relaxed) > 0;
  }
  uint64_t reads() const override;
  uint64_t writes() const override;

 private:
  size_t page_size_;
  std::atomic<uint32_t> read_delay_us_{0};
  mutable sync::Mutex mu_{sync::LockRank::kDisk, "inmemorydisk.mu"};
  std::vector<std::string> pages_ OIB_GUARDED_BY(mu_);
  std::vector<PageId> free_list_ OIB_GUARDED_BY(mu_);
  std::vector<std::pair<std::string, std::string>> meta_ OIB_GUARDED_BY(mu_);
  uint64_t reads_ OIB_GUARDED_BY(mu_) = 0;
  uint64_t writes_ OIB_GUARDED_BY(mu_) = 0;
};

class FileDisk : public DiskManager {
 public:
  // Bytes appended to each page slot on disk: masked CRC32C over
  // [page bytes, page-id] plus a page-id echo that catches writes
  // landing at the wrong offset.
  static constexpr size_t kPageTrailerSize = 8;

  // Failpoint sites (see common/failpoint.h for the policy grammar):
  //   filedisk.read    error/delay on page reads
  //   filedisk.write   error/short/torn/delay/abort on page writes
  //                    (torn kills the process after the partial write —
  //                    a torn write the process survives cannot exist)
  //   filedisk.sync    error/delay/abort on Sync()
  //   filedisk.meta    error/abort on metadata writes

  // Creates/opens `path` (page store), `path`.meta (metadata blob) and
  // `path`.dw (double-write journal).  Open repairs any write the last
  // crash tore: a trailing partial slot is truncated away, and a torn
  // in-place write is restored from the journal.
  static StatusOr<std::unique_ptr<FileDisk>> Open(const std::string& path,
                                                  size_t page_size);
  ~FileDisk() override;

  Status ReadPage(PageId page_id, char* out) override;
  Status WritePage(PageId page_id, const char* data) override;
  StatusOr<PageId> AllocatePage() override;
  StatusOr<PageId> AllocatePageNoReuse() override;
  Status FreePage(PageId page_id) override;
  PageId PageCount() const override;
  Status PutMeta(const std::string& key, const std::string& value) override;
  Status GetMeta(const std::string& key, std::string* value) override;
  Status Sync() override;
  size_t page_size() const override { return page_size_; }
  // reads_can_block() stays false: ReadPage holds mu_ across the pread, so
  // hinted reads would only queue on it, and a read the OS page cache
  // serves costs about a memcpy.
  uint64_t reads() const override;
  uint64_t writes() const override;

 private:
  FileDisk(std::string path, int fd, int dw_fd, size_t page_size)
      : path_(std::move(path)),
        fd_(fd),
        dw_fd_(dw_fd),
        page_size_(page_size) {}

  size_t slot_size() const { return page_size_ + kPageTrailerSize; }
  // Page image + trailer as stored on disk.
  std::string ComposeSlot(PageId page_id, const char* data) const;
  // Trailer check; nullptr `out` just validates.
  Status VerifySlot(PageId page_id, const char* slot, char* out) const;

  Status ReadSlotLocked(PageId page_id, char* out) OIB_REQUIRES(mu_);
  Status WriteSlotLocked(PageId page_id, const std::string& slot)
      OIB_REQUIRES(mu_);
  Status ExtendLocked(PageId page_id) OIB_REQUIRES(mu_);
  // Open-time torn-write repair from the double-write journal.
  Status RecoverDoubleWriteLocked() OIB_REQUIRES(mu_);
  Status LoadMeta() OIB_REQUIRES(mu_);
  Status StoreMeta() OIB_REQUIRES(mu_);

  std::string path_;
  int fd_;
  int dw_fd_;
  size_t page_size_;
  mutable sync::Mutex mu_{sync::LockRank::kDisk, "filedisk.mu"};
  PageId page_count_ OIB_GUARDED_BY(mu_) = 0;
  // File size (bytes) covered by the last metadata fsync; growth past a
  // sync boundary triggers an fsync so the file length itself is durable.
  uint64_t meta_synced_size_ OIB_GUARDED_BY(mu_) = 0;
  std::vector<PageId> free_list_ OIB_GUARDED_BY(mu_);
  std::vector<std::pair<std::string, std::string>> meta_ OIB_GUARDED_BY(mu_);
  uint64_t reads_ OIB_GUARDED_BY(mu_) = 0;
  uint64_t writes_ OIB_GUARDED_BY(mu_) = 0;
};

}  // namespace oib

#endif  // OIB_STORAGE_DISK_MANAGER_H_
