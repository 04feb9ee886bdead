// HeapFile: a table's records, stored in a chain of slotted data pages.
//
// Operations follow the paper's execution model exactly:
//  * every record insert/delete/update X-latches the data page, applies the
//    change, writes an undo-redo log record that *includes the count of
//    visible indexes* (needed by SF's rollback logic, Figure 2), bumps the
//    page LSN, and unlatches — index/side-file maintenance happens after
//    the latch is released (Figure 1);
//  * the index builder extracts keys one page at a time under an S latch
//    and without any record locks (section 2.2.2); the extraction hook runs
//    while the latch is still held so SF can advance Current-RID atomically
//    with respect to updaters of that page.
//
// Heap pages are allocated without page-id reuse so that RID order agrees
// with chain (scan) order; SF's Target-RID < Current-RID visibility test
// (section 3.1) depends on this monotonicity.
//
// HeapRm is the heap's recovery handler: physical per-page redo, plus undo
// that restores the record and then invokes an optional hook so the record
// manager can run the Figure 2 index-compensation logic.

#ifndef OIB_HEAP_HEAP_FILE_H_
#define OIB_HEAP_HEAP_FILE_H_

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "common/types.h"
#include "heap/slotted_page.h"
#include "storage/buffer_pool.h"
#include "txn/transaction_manager.h"

namespace oib {

// Heap RM opcodes.
enum class HeapOp : uint8_t {
  kInsert = 1,
  kDelete = 2,
  kUpdate = 3,
  kFormat = 4,  // NTA: initialize a fresh heap page
  kLink = 5,    // NTA: chain a new page after the old tail
};

class HeapFile {
 public:
  HeapFile(TableId id, BufferPool* pool, TransactionManager* txns)
      : table_id_(id), pool_(pool), txns_(txns) {}

  HeapFile(const HeapFile&) = delete;
  HeapFile& operator=(const HeapFile&) = delete;

  // Allocates and formats the first page of a new heap.
  Status Create();
  // Opens an existing heap rooted at `first`, rebuilding in-memory hints
  // by walking the page chain.
  Status Open(PageId first);

  TableId table_id() const { return table_id_; }
  BufferPool* pool() const { return pool_; }
  PageId first_page() const { return first_page_; }
  PageId tail_page() const { return tail_page_.load(); }

  // Logged record operations.  `visible_count_fn` is invoked *while the
  // data page is X-latched* with the affected RID and must return the
  // number of indexes visible to the modifying transaction; the result is
  // stored in the log record per Figure 1/2.  Evaluating under the latch
  // is what orders the SF Target-RID/Current-RID comparison against IB's
  // scan (section 3.1).  Old images are returned so the caller can
  // extract keys for index maintenance.
  using VisibleCountFn = std::function<uint32_t(const Rid&)>;

  // Called (under the page latch) before a dead slot is reused for a new
  // record: must claim the RID's lock for the inserting transaction and
  // return true, or return false if the slot is unavailable (typically
  // because its deleter has not committed yet — reusing it would make the
  // deleter's rollback unable to restore the record).  Fresh slots are
  // never subject to claiming.
  using TryClaimRidFn = std::function<bool(const Rid&)>;

  StatusOr<Rid> Insert(Transaction* txn, std::string_view rec,
                       const VisibleCountFn& visible_count_fn,
                       const TryClaimRidFn& try_claim = {});
  Status Delete(Transaction* txn, Rid rid,
                const VisibleCountFn& visible_count_fn,
                std::string* old_rec = nullptr);
  Status Update(Transaction* txn, Rid rid, std::string_view rec,
                const VisibleCountFn& visible_count_fn,
                std::string* old_rec = nullptr);

  // Places a record at a specific dead RID (used by tests reproducing the
  // paper's "T2 inserts a record at the same location (RID R)" scenario).
  Status InsertAt(Transaction* txn, Rid rid, std::string_view rec,
                  const VisibleCountFn& visible_count_fn);

  // Point read under an S latch.  NotFound for dead/absent records.
  StatusOr<std::string> Get(Rid rid) const;
  bool Exists(Rid rid) const;

  // IB extraction: S-latches `page`, collects all live records, invokes
  // `under_latch` (if any) while still latched — SF advances Current-RID
  // there — and returns the next page id in the chain (kInvalidPageId at
  // the chain's current end).
  StatusOr<PageId> ExtractPage(
      PageId page, std::vector<std::pair<Rid, std::string>>* out,
      const std::function<void()>& under_latch = {}) const;

  // Partition planning (BuildPipeline): returns the page ids in chain
  // order from the in-memory chain cache (rebuilt by Open's walk, extended
  // on allocation) — no page I/O, so planning never adds a physical pass
  // over the table.  Stops after `stop_at` when given (inclusive), else at
  // the chain's current end.  Because page ids are never reused and the
  // chain only grows at the tail, the returned prefix stays valid for the
  // whole build even while transactions extend the chain.
  StatusOr<std::vector<PageId>> ChainPages(
      PageId stop_at = kInvalidPageId) const;

  // Unlatched convenience full scan (tests / verification): fn per record.
  Status ForEach(
      const std::function<void(const Rid&, std::string_view)>& fn) const;

  uint64_t live_records() const { return live_records_.load(); }
  size_t page_count() const;

 private:
  // Finds or creates a page with room for `need` bytes; returns it
  // X-latched.
  StatusOr<WritePageGuard> PageForInsert(size_t need);
  // Allocates, formats, and links a fresh tail page (NTA-logged).
  StatusOr<PageId> ExtendChain();

  TableId table_id_;
  BufferPool* pool_;
  TransactionManager* txns_;

  PageId first_page_ = kInvalidPageId;
  std::atomic<PageId> tail_page_{kInvalidPageId};
  std::atomic<uint64_t> live_records_{0};

  // Taken under a heap page latch on the insert path (recording a
  // free-space hint while the page is still latched), hence ranked above
  // kPageLatch.
  mutable sync::Mutex hints_mu_{sync::LockRank::kHeapHints,
                                "heapfile.hints_mu"};
  // Pages believed to have insert room.
  std::vector<PageId> free_hints_ OIB_GUARDED_BY(hints_mu_);
  // The chain, in order (append-only).
  std::vector<PageId> chain_pages_ OIB_GUARDED_BY(hints_mu_);
  size_t page_count_ OIB_GUARDED_BY(hints_mu_) = 0;

  // Serializes chain extension; taken only with no page latch held, and
  // page latches, shard mutexes and the WAL are all acquired under it.
  sync::Mutex extend_mu_{sync::LockRank::kHeapExtend, "heapfile.extend_mu"};
};

// Recovery handler for all heap files (dispatch key: rec.aux_id == table,
// rec.page_id == page; redo is purely physical so no table lookup needed).
class HeapRm : public ResourceManager {
 public:
  // Figure 2 hook: invoked during undo of a record operation *while the
  // data page is X-latched and before the CLR is written*, so the record
  // manager can decide visibility under the latch and log idempotent
  // index compensations that survive a crash mid-undo.  original_op is
  // the HeapOp being undone; `before` is the record image being restored
  // (empty for undo-of-insert), `after` the image being removed (empty
  // for undo-of-delete).
  using UndoHook = std::function<Status(
      Transaction* txn, TableId table, HeapOp original_op, Rid rid,
      std::string_view before, std::string_view after,
      uint32_t logged_visible_count)>;

  HeapRm(BufferPool* pool, TransactionManager* txns)
      : pool_(pool), txns_(txns) {}

  void SetUndoHook(UndoHook hook) { undo_hook_ = std::move(hook); }

  RmId rm_id() const override { return RmId::kHeap; }
  Status Redo(const LogRecord& rec) override;
  Status Undo(Transaction* txn, const LogRecord& rec) override;

 private:
  BufferPool* pool_;
  TransactionManager* txns_;
  UndoHook undo_hook_;
};

// Payload helpers shared by HeapFile (logging) and HeapRm (recovery).
struct HeapRecPayload {
  SlotId slot = 0;
  uint32_t visible_count = 0;
  std::string_view bytes;  // record image (empty for delete redo)
};
void EncodeHeapPayload(std::string* out, SlotId slot, uint32_t visible_count,
                       std::string_view bytes);
Status DecodeHeapPayload(std::string_view in, HeapRecPayload* out);

}  // namespace oib

#endif  // OIB_HEAP_HEAP_FILE_H_
