#include "heap/heap_file.h"

#include <algorithm>

#include "common/coding.h"

namespace oib {

void EncodeHeapPayload(std::string* out, SlotId slot, uint32_t visible_count,
                       std::string_view bytes) {
  PutFixed16(out, slot);
  PutFixed32(out, visible_count);
  out->append(bytes.data(), bytes.size());
}

Status DecodeHeapPayload(std::string_view in, HeapRecPayload* out) {
  BufferReader r(in);
  if (!r.GetFixed16(&out->slot) || !r.GetFixed32(&out->visible_count)) {
    return Status::Corruption("heap payload");
  }
  out->bytes = in.substr(r.position());
  return Status::OK();
}

// ----------------------------- HeapFile -----------------------------

Status HeapFile::Create() {
  PageId id;
  auto guard = pool_->NewPageNoReuse(&id);
  if (!guard.ok()) return guard.status();
  SlottedPage sp(guard->data(), pool_->disk()->page_size());
  sp.Init(PageType::kHeap);
  // NTA: format record (system action, no transaction, redo-only).
  LogRecord rec;
  rec.type = LogRecordType::kRedoOnly;
  rec.rm_id = RmId::kHeap;
  rec.opcode = static_cast<uint8_t>(HeapOp::kFormat);
  rec.page_id = id;
  rec.aux_id = table_id_;
  OIB_RETURN_IF_ERROR(txns_->AppendLog(nullptr, &rec));
  guard->set_page_lsn(rec.lsn);
  first_page_ = id;
  tail_page_.store(id);
  {
    sync::MutexLock g(&hints_mu_);
    page_count_ = 1;
    chain_pages_.assign(1, id);
  }
  return Status::OK();
}

Status HeapFile::Open(PageId first) {
  first_page_ = first;
  PageId cur = first;
  PageId tail = first;
  size_t count = 0;
  uint64_t live = 0;
  std::vector<PageId> hints;
  std::vector<PageId> chain;
  // Read-ahead by page id: heap pages are allocated in ascending id order,
  // so a table loaded in one go chains mostly through consecutive ids.
  // While the chain runs sequentially, ids up to `window` past the current
  // page are hinted; pages [.., hinted] have been.
  const size_t window = pool_->ReadAheadWindow();
  const PageId last_id = window > 0 ? pool_->disk()->PageCount() - 1 : 0;
  PageId hinted = first;
  while (cur != kInvalidPageId) {
    auto guard = pool_->FetchRead(cur);
    if (!guard.ok()) return guard.status();
    SlottedPage sp(const_cast<char*>(guard->data()),
                   pool_->disk()->page_size());
    if (sp.type() != PageType::kHeap) {
      return Status::Corruption("heap chain reaches a non-heap page " +
                                std::to_string(cur));
    }
    if (sp.next_page() == cur) {
      return Status::Corruption("heap chain self-loop at page " +
                                std::to_string(cur));
    }
    for (SlotId s = 0; s < sp.slot_count(); ++s) {
      if (sp.IsLive(s)) ++live;
    }
    if (sp.FreeSpaceForInsert() > 64) hints.push_back(cur);
    chain.push_back(cur);
    ++count;
    tail = cur;
    PageId next = sp.next_page();
    if (window > 0 && next == cur + 1) {
      PageId to = std::min<PageId>(cur + window, last_id);
      for (PageId p = std::max(hinted, cur) + 1; p <= to; ++p) {
        pool_->Prefetch(p);
      }
      hinted = std::max(hinted, to);
    }
    cur = next;
  }
  tail_page_.store(tail);
  live_records_.store(live);
  sync::MutexLock g(&hints_mu_);
  page_count_ = count;
  free_hints_ = std::move(hints);
  chain_pages_ = std::move(chain);
  return Status::OK();
}

StatusOr<PageId> HeapFile::ExtendChain() {
  PageId old_tail = tail_page_.load();
  PageId id;
  {
    auto guard = pool_->NewPageNoReuse(&id);
    if (!guard.ok()) return guard.status();
    SlottedPage sp(guard->data(), pool_->disk()->page_size());
    sp.Init(PageType::kHeap);
    LogRecord rec;
    rec.type = LogRecordType::kRedoOnly;
    rec.rm_id = RmId::kHeap;
    rec.opcode = static_cast<uint8_t>(HeapOp::kFormat);
    rec.page_id = id;
    rec.aux_id = table_id_;
    OIB_RETURN_IF_ERROR(txns_->AppendLog(nullptr, &rec));
    guard->set_page_lsn(rec.lsn);
  }
  {
    auto guard = pool_->FetchWrite(old_tail);
    if (!guard.ok()) return guard.status();
    SlottedPage sp(guard->data(), pool_->disk()->page_size());
    sp.set_next_page(id);
    LogRecord rec;
    rec.type = LogRecordType::kRedoOnly;
    rec.rm_id = RmId::kHeap;
    rec.opcode = static_cast<uint8_t>(HeapOp::kLink);
    rec.page_id = old_tail;
    rec.aux_id = table_id_;
    PutFixed32(&rec.redo, id);
    OIB_RETURN_IF_ERROR(txns_->AppendLog(nullptr, &rec));
    guard->set_page_lsn(rec.lsn);
  }
  tail_page_.store(id);
  {
    sync::MutexLock g(&hints_mu_);
    ++page_count_;
    chain_pages_.push_back(id);
  }
  return id;
}

StatusOr<WritePageGuard> HeapFile::PageForInsert(size_t need) {
  // Try free-space hints first, then the tail, then extend.
  for (;;) {
    PageId candidate = kInvalidPageId;
    {
      sync::MutexLock g(&hints_mu_);
      while (!free_hints_.empty() && candidate == kInvalidPageId) {
        candidate = free_hints_.back();
        free_hints_.pop_back();
      }
    }
    if (candidate == kInvalidPageId) candidate = tail_page_.load();
    auto guard = pool_->FetchWrite(candidate);
    if (!guard.ok()) return guard.status();
    SlottedPage sp(guard->data(), pool_->disk()->page_size());
    if (sp.FreeSpaceForInsert() >= need) {
      if (sp.FreeSpaceForInsert() >= 2 * need + 64) {
        // Page still roomy: keep it as a hint for the next insert.
        sync::MutexLock g(&hints_mu_);
        free_hints_.push_back(candidate);
      }
      return guard;
    }
    guard->Release();
    if (candidate == tail_page_.load()) {
      // Serialize extension: re-check tail after taking the slow path.
      sync::MutexLock ext(&extend_mu_);
      if (candidate == tail_page_.load()) {
        auto extended = ExtendChain();
        if (!extended.ok()) return extended.status();
      }
    }
  }
}

StatusOr<Rid> HeapFile::Insert(Transaction* txn, std::string_view rec,
                               const VisibleCountFn& visible_count_fn,
                               const TryClaimRidFn& try_claim) {
  auto guard = PageForInsert(rec.size());
  if (!guard.ok()) return guard.status();
  SlottedPage sp(guard->data(), pool_->disk()->page_size());
  SlotId target = kInvalidSlotId;
  if (try_claim) {
    // Reuse a dead slot only if its RID lock is claimable (its deleter
    // committed); otherwise append a fresh slot.
    for (SlotId s2 = 0; s2 < sp.slot_count(); ++s2) {
      if (!sp.IsLive(s2) && try_claim(Rid(guard->page_id(), s2))) {
        target = s2;
        break;
      }
    }
    if (target == kInvalidSlotId) target = sp.slot_count();
    Status ins = sp.InsertAt(target, rec);
    if (ins.IsBusy()) {
      // The page's free space was tied up in unclaimable dead slots; put
      // the record on a fresh page instead.
      guard->Release();
      sync::MutexLock ext(&extend_mu_);
      auto extended = ExtendChain();
      if (!extended.ok()) return extended.status();
      auto g2 = pool_->FetchWrite(*extended);
      if (!g2.ok()) return g2.status();
      *guard = std::move(*g2);
      SlottedPage sp2(guard->data(), pool_->disk()->page_size());
      target = sp2.slot_count();
      OIB_RETURN_IF_ERROR(sp2.InsertAt(target, rec));
    } else if (!ins.ok()) {
      return ins;
    }
  } else {
    auto slot = sp.Insert(rec);
    if (!slot.ok()) return slot.status();
    target = *slot;
  }
  Rid rid(guard->page_id(), target);
  uint32_t visible_count = visible_count_fn ? visible_count_fn(rid) : 0;

  LogRecord lr;
  lr.type = LogRecordType::kUpdate;
  lr.rm_id = RmId::kHeap;
  lr.opcode = static_cast<uint8_t>(HeapOp::kInsert);
  lr.page_id = rid.page;
  lr.aux_id = table_id_;
  EncodeHeapPayload(&lr.redo, rid.slot, visible_count, rec);
  OIB_RETURN_IF_ERROR(txns_->AppendLog(txn, &lr));
  guard->set_page_lsn(lr.lsn);
  live_records_.fetch_add(1);
  return rid;
}

Status HeapFile::InsertAt(Transaction* txn, Rid rid, std::string_view rec,
                          const VisibleCountFn& visible_count_fn) {
  auto guard = pool_->FetchWrite(rid.page);
  if (!guard.ok()) return guard.status();
  SlottedPage sp(guard->data(), pool_->disk()->page_size());
  OIB_RETURN_IF_ERROR(sp.InsertAt(rid.slot, rec));
  uint32_t visible_count = visible_count_fn ? visible_count_fn(rid) : 0;
  LogRecord lr;
  lr.type = LogRecordType::kUpdate;
  lr.rm_id = RmId::kHeap;
  lr.opcode = static_cast<uint8_t>(HeapOp::kInsert);
  lr.page_id = rid.page;
  lr.aux_id = table_id_;
  EncodeHeapPayload(&lr.redo, rid.slot, visible_count, rec);
  OIB_RETURN_IF_ERROR(txns_->AppendLog(txn, &lr));
  guard->set_page_lsn(lr.lsn);
  live_records_.fetch_add(1);
  return Status::OK();
}

Status HeapFile::Delete(Transaction* txn, Rid rid,
                        const VisibleCountFn& visible_count_fn,
                        std::string* old_rec) {
  auto guard = pool_->FetchWrite(rid.page);
  if (!guard.ok()) return guard.status();
  SlottedPage sp(guard->data(), pool_->disk()->page_size());
  auto old = sp.Get(rid.slot);
  if (!old.ok()) return old.status();
  std::string old_copy(old->data(), old->size());
  uint32_t visible_count = visible_count_fn ? visible_count_fn(rid) : 0;
  OIB_RETURN_IF_ERROR(sp.Delete(rid.slot));

  LogRecord lr;
  lr.type = LogRecordType::kUpdate;
  lr.rm_id = RmId::kHeap;
  lr.opcode = static_cast<uint8_t>(HeapOp::kDelete);
  lr.page_id = rid.page;
  lr.aux_id = table_id_;
  EncodeHeapPayload(&lr.redo, rid.slot, visible_count, {});
  lr.undo = old_copy;
  OIB_RETURN_IF_ERROR(txns_->AppendLog(txn, &lr));
  guard->set_page_lsn(lr.lsn);
  live_records_.fetch_sub(1);
  if (old_rec != nullptr) *old_rec = std::move(old_copy);
  {
    sync::MutexLock g(&hints_mu_);
    if (free_hints_.size() < 64) free_hints_.push_back(rid.page);
  }
  return Status::OK();
}

Status HeapFile::Update(Transaction* txn, Rid rid, std::string_view rec,
                        const VisibleCountFn& visible_count_fn,
                        std::string* old_rec) {
  auto guard = pool_->FetchWrite(rid.page);
  if (!guard.ok()) return guard.status();
  SlottedPage sp(guard->data(), pool_->disk()->page_size());
  auto old = sp.Get(rid.slot);
  if (!old.ok()) return old.status();
  std::string old_copy(old->data(), old->size());
  uint32_t visible_count = visible_count_fn ? visible_count_fn(rid) : 0;
  OIB_RETURN_IF_ERROR(sp.Update(rid.slot, rec));

  LogRecord lr;
  lr.type = LogRecordType::kUpdate;
  lr.rm_id = RmId::kHeap;
  lr.opcode = static_cast<uint8_t>(HeapOp::kUpdate);
  lr.page_id = rid.page;
  lr.aux_id = table_id_;
  EncodeHeapPayload(&lr.redo, rid.slot, visible_count, rec);
  lr.undo = old_copy;
  OIB_RETURN_IF_ERROR(txns_->AppendLog(txn, &lr));
  guard->set_page_lsn(lr.lsn);
  if (old_rec != nullptr) *old_rec = std::move(old_copy);
  return Status::OK();
}

StatusOr<std::string> HeapFile::Get(Rid rid) const {
  auto guard = pool_->FetchRead(rid.page);
  if (!guard.ok()) return guard.status();
  SlottedPage sp(const_cast<char*>(guard->data()),
                 pool_->disk()->page_size());
  auto rec = sp.Get(rid.slot);
  if (!rec.ok()) return rec.status();
  return std::string(rec->data(), rec->size());
}

bool HeapFile::Exists(Rid rid) const {
  auto guard = pool_->FetchRead(rid.page);
  if (!guard.ok()) return false;
  SlottedPage sp(const_cast<char*>(guard->data()),
                 pool_->disk()->page_size());
  return sp.IsLive(rid.slot);
}

StatusOr<PageId> HeapFile::ExtractPage(
    PageId page, std::vector<std::pair<Rid, std::string>>* out,
    const std::function<void()>& under_latch) const {
  auto guard = pool_->FetchRead(page);
  if (!guard.ok()) return guard.status();
  SlottedPage sp(const_cast<char*>(guard->data()),
                 pool_->disk()->page_size());
  for (SlotId s = 0; s < sp.slot_count(); ++s) {
    auto rec = sp.Get(s);
    if (rec.ok()) {
      out->emplace_back(Rid(page, s), std::string(rec->data(), rec->size()));
    }
  }
  if (under_latch) under_latch();
  return sp.next_page();
}

StatusOr<std::vector<PageId>> HeapFile::ChainPages(PageId stop_at) const {
  sync::MutexLock g(&hints_mu_);
  if (stop_at == kInvalidPageId) return chain_pages_;
  std::vector<PageId> pages;
  pages.reserve(chain_pages_.size());
  for (PageId p : chain_pages_) {
    pages.push_back(p);
    if (p == stop_at) break;
  }
  return pages;
}

Status HeapFile::ForEach(
    const std::function<void(const Rid&, std::string_view)>& fn) const {
  PageId cur = first_page_;
  while (cur != kInvalidPageId) {
    std::vector<std::pair<Rid, std::string>> recs;
    auto next = ExtractPage(cur, &recs);
    if (!next.ok()) return next.status();
    for (const auto& [rid, bytes] : recs) fn(rid, bytes);
    cur = *next;
  }
  return Status::OK();
}

size_t HeapFile::page_count() const {
  sync::MutexLock g(&hints_mu_);
  return page_count_;
}

// ------------------------------ HeapRm ------------------------------

Status HeapRm::Redo(const LogRecord& rec) {
  HeapOp op = static_cast<HeapOp>(rec.opcode);
  auto guard = pool_->FetchWrite(rec.page_id);
  if (!guard.ok()) return guard.status();
  if (guard->page_lsn() >= rec.lsn) return Status::OK();  // already applied
  SlottedPage sp(guard->data(), pool_->disk()->page_size());
  switch (op) {
    case HeapOp::kFormat:
      sp.Init(PageType::kHeap);
      break;
    case HeapOp::kLink: {
      BufferReader r(rec.redo);
      uint32_t next;
      if (!r.GetFixed32(&next)) return Status::Corruption("link redo");
      sp.set_next_page(next);
      break;
    }
    case HeapOp::kInsert: {
      HeapRecPayload p;
      OIB_RETURN_IF_ERROR(DecodeHeapPayload(rec.redo, &p));
      OIB_RETURN_IF_ERROR(sp.InsertAt(p.slot, p.bytes));
      break;
    }
    case HeapOp::kDelete: {
      HeapRecPayload p;
      OIB_RETURN_IF_ERROR(DecodeHeapPayload(rec.redo, &p));
      OIB_RETURN_IF_ERROR(sp.Delete(p.slot));
      break;
    }
    case HeapOp::kUpdate: {
      HeapRecPayload p;
      OIB_RETURN_IF_ERROR(DecodeHeapPayload(rec.redo, &p));
      OIB_RETURN_IF_ERROR(sp.Update(p.slot, p.bytes));
      break;
    }
  }
  guard->set_page_lsn(rec.lsn);
  return Status::OK();
}

Status HeapRm::Undo(Transaction* txn, const LogRecord& rec) {
  HeapOp op = static_cast<HeapOp>(rec.opcode);
  HeapRecPayload p;
  OIB_RETURN_IF_ERROR(DecodeHeapPayload(rec.redo, &p));
  Rid rid(rec.page_id, p.slot);

  // Figure 2: X-latch the target page; decide index-compensation actions
  // *under the latch* (the Current-RID comparison must be ordered with IB's
  // scan by the page latch) and log them (redo-only) BEFORE the CLR — a
  // crash in between re-runs the whole undo, and the compensations are
  // idempotent; the reverse order would lose them.  Then modify the
  // record, write the CLR, bump the page LSN, and unlatch.
  std::string before;  // image restored by this undo
  std::string after;   // image removed by this undo
  {
    auto guard = pool_->FetchWrite(rec.page_id);
    if (!guard.ok()) return guard.status();
    SlottedPage sp(guard->data(), pool_->disk()->page_size());

    switch (op) {
      case HeapOp::kInsert:
        after.assign(p.bytes.data(), p.bytes.size());
        break;
      case HeapOp::kDelete:
        before = rec.undo;
        break;
      case HeapOp::kUpdate:
        before = rec.undo;
        after.assign(p.bytes.data(), p.bytes.size());
        break;
      default:
        return Status::Corruption("undo of non-undoable heap op");
    }
    if (undo_hook_) {
      OIB_RETURN_IF_ERROR(undo_hook_(txn, rec.aux_id, op, rid, before,
                                     after, p.visible_count));
    }

    LogRecord clr;
    clr.rm_id = RmId::kHeap;
    clr.page_id = rec.page_id;
    clr.aux_id = rec.aux_id;
    switch (op) {
      case HeapOp::kInsert: {
        OIB_RETURN_IF_ERROR(sp.Delete(p.slot));
        clr.opcode = static_cast<uint8_t>(HeapOp::kDelete);
        EncodeHeapPayload(&clr.redo, p.slot, p.visible_count, {});
        break;
      }
      case HeapOp::kDelete: {
        OIB_RETURN_IF_ERROR(sp.InsertAt(p.slot, rec.undo));
        clr.opcode = static_cast<uint8_t>(HeapOp::kInsert);
        EncodeHeapPayload(&clr.redo, p.slot, p.visible_count, rec.undo);
        break;
      }
      case HeapOp::kUpdate: {
        OIB_RETURN_IF_ERROR(sp.Update(p.slot, rec.undo));
        clr.opcode = static_cast<uint8_t>(HeapOp::kUpdate);
        EncodeHeapPayload(&clr.redo, p.slot, p.visible_count, rec.undo);
        break;
      }
      default:
        return Status::Corruption("undo of non-undoable heap op");
    }
    OIB_RETURN_IF_ERROR(txns_->AppendClr(txn, rec, &clr));
    guard->set_page_lsn(clr.lsn);
  }
  return Status::OK();
}

}  // namespace oib
