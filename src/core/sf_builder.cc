// Algorithm SF — Bottom-Up Index Build with Side-File (paper section 3).
//
// No quiesce, ever.  The builder maintains Current-RID as it scans; a
// transaction whose Target-RID is behind the scan sees the index as
// visible and appends <op, key> entries to the side-file (Figure 1),
// otherwise it ignores the index and IB extracts the final state.  Keys
// are sorted (restartable) and loaded bottom-up with *no logging*;
// durability comes from loader checkpoints that flush the index pages and
// record the highest key + rightmost branch (3.2.4).  Finally IB drains
// the side-file — logged, committed and checkpointed in batches — and
// flips the Index_Build flag under a short drain gate (3.2.5).
//
// The scan is partitioned across build_threads workers by the shared
// BuildPipeline.  Current-RID stays a single global frontier: each worker
// advances it under the page's S latch to the *maximum* page it has
// extracted (CAS-max).  Pages in not-yet-scanned gaps below the frontier
// then take both routes — side-file entry *and* later extraction — which
// the tolerant apply (duplicate inserts rejected, absent deletes ignored)
// absorbs; the unsafe direction, a change on an extracted page with no
// side-file entry, can never happen (see DESIGN.md).
//
// BuildMany() builds several indexes in one scan (section 6.2): one
// sorter per index fed by a single pass over the data pages, then
// per-index load and apply phases.

#include <algorithm>
#include <chrono>

#include "btree/bulk_loader.h"
#include "common/coding.h"
#include "common/failpoint.h"
#include "core/build_pipeline.h"
#include "core/index_builder.h"
#include "core/schema.h"
#include "obs/trace.h"
#include "sort/external_sorter.h"

namespace oib {

namespace {

// Phase-1 blob: the encoded ScanPlan (per-partition scan positions + one
// run-writer checkpoint per index per partition).

// Phase-2 blob: [loading_idx][n sort blobs][loader blob (may be empty)].
std::string EncodeSfLoadState(uint32_t loading_idx,
                              const std::vector<std::string>& sort_blobs,
                              const std::string& loader_blob) {
  std::string out;
  PutFixed32(&out, loading_idx);
  PutFixed32(&out, static_cast<uint32_t>(sort_blobs.size()));
  for (const std::string& b : sort_blobs) PutLengthPrefixed(&out, b);
  PutLengthPrefixed(&out, loader_blob);
  return out;
}

Status DecodeSfLoadState(const std::string& blob, uint32_t* loading_idx,
                         std::vector<std::string>* sort_blobs,
                         std::string* loader_blob) {
  BufferReader r(blob);
  uint32_t n;
  if (!r.GetFixed32(loading_idx) || !r.GetFixed32(&n)) {
    return Status::Corruption("sf load state");
  }
  sort_blobs->clear();
  for (uint32_t i = 0; i < n; ++i) {
    std::string b;
    if (!r.GetLengthPrefixed(&b)) return Status::Corruption("sf sort blob");
    sort_blobs->push_back(std::move(b));
  }
  if (!r.GetLengthPrefixed(loader_blob)) {
    return Status::Corruption("sf loader blob");
  }
  return Status::OK();
}

// Phase-3 blob: [applying_idx][cursor page][cursor slot][ordinal][applied].
std::string EncodeSfApplyState(uint32_t applying_idx, PageId page,
                               SlotId slot, uint64_t ordinal,
                               uint64_t applied) {
  std::string out;
  PutFixed32(&out, applying_idx);
  PutFixed32(&out, page);
  PutFixed16(&out, slot);
  PutFixed64(&out, ordinal);
  PutFixed64(&out, applied);
  return out;
}

Status DecodeSfApplyState(const std::string& blob, uint32_t* applying_idx,
                          PageId* page, SlotId* slot, uint64_t* ordinal,
                          uint64_t* applied) {
  BufferReader r(blob);
  uint16_t s;
  if (!r.GetFixed32(applying_idx) || !r.GetFixed32(page) ||
      !r.GetFixed16(&s) || !r.GetFixed64(ordinal) ||
      !r.GetFixed64(applied)) {
    return Status::Corruption("sf apply state");
  }
  *slot = s;
  return Status::OK();
}

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

bool FencedOut(const std::vector<SideFileFence>& fences, uint64_t ordinal,
               const Rid& rid) {
  uint64_t packed = PackRid(rid);
  for (const SideFileFence& f : fences) {
    if (ordinal < f.before_ordinal && packed >= f.rid_floor &&
        packed < f.rid_ceiling) {
      return true;
    }
  }
  return false;
}

constexpr const char* kSfScanSpans[] = {
    "sf.scan.p0", "sf.scan.p1", "sf.scan.p2", "sf.scan.p3",
    "sf.scan.p4", "sf.scan.p5", "sf.scan.p6", "sf.scan.p7"};

}  // namespace

Status SfIndexBuilder::Build(const BuildParams& params, IndexId* out,
                             BuildStats* stats) {
  std::vector<IndexId> ids;
  OIB_RETURN_IF_ERROR(BuildMany({params}, &ids, stats));
  if (out != nullptr) *out = ids[0];
  return Status::OK();
}

Status SfIndexBuilder::BuildMany(const std::vector<BuildParams>& params,
                                 std::vector<IndexId>* out,
                                 BuildStats* stats) {
  if (params.empty()) return Status::InvalidArgument("no indexes requested");
  TableId table = params[0].table;
  for (const BuildParams& p : params) {
    if (p.table != table) {
      return Status::InvalidArgument("one scan covers one table");
    }
  }
  Catalog* catalog = engine_->catalog();

  // Descriptor creation without quiescing (section 3.2.1); the
  // Index_Build flag is raised by registering the ActiveBuild.
  std::vector<IndexId> ids;
  std::vector<InBuildIndex> in_build;
  for (const BuildParams& p : params) {
    auto desc =
        catalog->CreateIndex(p.name, table, p.unique, p.key_cols,
                             BuildAlgo::kSf, p.key_types);
    if (!desc.ok()) return desc.status();
    ids.push_back(desc->id);
    InBuildIndex ib;
    ib.id = desc->id;
    ib.tree = catalog->index(desc->id);
    ib.side_file = catalog->side_file(desc->id);
    ib.unique = p.unique;
    ib.key_cols = p.key_cols;
    ib.key_types = p.key_types;
    in_build.push_back(std::move(ib));
  }
  engine_->records()->RegisterBuild(table, BuildAlgo::kSf,
                                    std::move(in_build));

  BuildMeta meta;
  meta.algo = BuildAlgo::kSf;
  meta.indexes = ids;
  meta.phase = 1;
  meta.current_rid = PackRid(Rid::MinusInfinity());
  meta.fences.assign(ids.size(), {});
  OIB_RETURN_IF_ERROR(SaveBuildMeta(engine_, table, meta));

  if (out != nullptr) *out = ids;
  return Run(table, ids, /*start_phase=*/1, "", stats);
}

Status SfIndexBuilder::Resume(TableId table, BuildStats* stats) {
  auto meta = LoadBuildMeta(engine_, table);
  if (!meta.ok()) return meta.status();
  if (meta->algo != BuildAlgo::kSf) {
    return Status::InvalidArgument("not an interrupted SF build");
  }
  return Run(table, meta->indexes, meta->phase, meta->phase_blob, stats);
}

Status SfIndexBuilder::Cancel(TableId table) {
  auto meta = LoadBuildMeta(engine_, table);
  if (!meta.ok()) return meta.status();
  Transaction* txn = engine_->Begin();
  LockOptions opt;
  opt.timeout_ms = 60'000;
  OIB_RETURN_IF_ERROR(engine_->locks()->Lock(
      txn->id(), TableLockId(table), LockMode::kS, opt));
  engine_->records()->UnregisterBuild(table);
  for (IndexId id : meta->indexes) {
    OIB_RETURN_IF_ERROR(engine_->catalog()->DropIndex(id));
  }
  OIB_RETURN_IF_ERROR(ClearBuildMeta(engine_, table));
  return engine_->Commit(txn);
}

Status SfIndexBuilder::Run(TableId table, std::vector<IndexId> ids,
                           int start_phase, std::string phase_blob,
                           BuildStats* stats) {
  Catalog* catalog = engine_->catalog();
  HeapFile* heap = catalog->table(table);
  if (heap == nullptr) return Status::NotFound("no such table");
  auto build = engine_->records()->GetBuild(table);
  if (!build) return Status::Corruption("SF build not registered");
  const Options& options = engine_->options();
  LogStats log_before = engine_->log()->stats();
  uint64_t key_raw_before = engine_->runs()->raw_key_bytes();
  uint64_t key_stored_before = engine_->runs()->stored_key_bytes();
  BuildStats local;
  auto t_run = std::chrono::steady_clock::now();

  size_t n = ids.size();
  std::vector<BTree*> trees(n);
  std::vector<SideFile*> side_files(n);
  std::vector<IndexDescriptor> descs(n);
  for (size_t i = 0; i < n; ++i) {
    trees[i] = catalog->index(ids[i]);
    side_files[i] = catalog->side_file(ids[i]);
    auto d = catalog->descriptor(ids[i]);
    if (!d.ok()) return d.status();
    descs[i] = *d;
    if (trees[i] == nullptr || side_files[i] == nullptr) {
      return Status::Corruption("missing SF build objects");
    }
  }

  std::vector<std::unique_ptr<ExternalSorter>> sorters;
  for (size_t i = 0; i < n; ++i) {
    sorters.push_back(
        std::make_unique<ExternalSorter>(engine_->runs(), &options));
  }

  BuildMeta meta;
  {
    auto loaded = LoadBuildMeta(engine_, table);
    if (!loaded.ok()) return loaded.status();
    meta = std::move(*loaded);
  }

  std::vector<std::string> sort_blobs;
  uint32_t loading_idx = 0;
  std::string loader_blob;

  obs::Tracer* tracer = engine_->tracer();

  if (start_phase <= 1) {
    // ---- Phase 1: partitioned scan + pipelined sort.  Current-RID
    // advances under each page's S latch (section 3.2.2) to the maximum
    // extracted page across all workers.
    build->SetPhase(obs::BuildPhase::kScan);
    obs::ScopedSpan scan_span(tracer, "sf.scan");
    ScanPlan plan;
    if (!phase_blob.empty()) {
      OIB_RETURN_IF_ERROR(DecodeScanPlan(phase_blob, &plan));
      if (plan.parts.empty()) return Status::Corruption("sf scan plan");
    } else {
      auto planned =
          PlanPartitionedScan(heap, kInvalidPageId, options.build_threads);
      if (!planned.ok()) return planned.status();
      plan = std::move(*planned);
    }

    std::vector<BuildPipeline::ScanTarget> targets;
    targets.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      targets.push_back(
          {descs[i].key_cols, descs[i].key_types, sorters[i].get()});
    }
    BuildPipeline::ScanHooks hooks;
    hooks.failpoint = "sf.scan";
    hooks.span_names = kSfScanSpans;
    hooks.span_name_count = 8;
    hooks.page_scanned = [&](PageId page) {
      // Still holding the page's S latch: every record in this page is
      // now "behind" the scan.  CAS-max keeps the global frontier
      // monotone when workers publish out of order.
      uint64_t candidate = PackRid(Rid(page, kInvalidSlotId));
      uint64_t cur = build->current_rid.load(std::memory_order_relaxed);
      while (cur < candidate &&
             !build->current_rid.compare_exchange_weak(cur, candidate)) {
      }
    };
    hooks.keys_progress = [&](uint64_t k) {
      build->keys_done.fetch_add(k, std::memory_order_relaxed);
    };
    hooks.checkpoint = [&](const std::string& blob) -> Status {
      obs::ScopedSpan ckpt_span(tracer, "sf.ckpt");
      meta.phase = 1;
      meta.current_rid = build->current_rid.load();
      meta.phase_blob = blob;
      return SaveBuildMeta(engine_, table, meta);
    };
    BuildPipeline::ScanResult scan_res;
    OIB_RETURN_IF_ERROR(BuildPipeline::RunScan(
        heap, tracer, targets, &plan, hooks,
        options.sort_checkpoint_every_keys, &scan_res));
    local.keys_extracted = scan_res.keys_extracted;
    local.data_pages_scanned = scan_res.pages_scanned;
    local.checkpoints += scan_res.checkpoints;
    local.scan_ms = scan_res.busy_ms;

    build->SetCurrentRid(Rid::Infinity());
    // Extension race: a transaction may have chained a new page after the
    // tail worker read next == invalid but before Current-RID became
    // infinity; its inserts decided "invisible" and made no side-file
    // entries.  Now that infinity is published, re-read the tail's next
    // under the latch: any page linked before that re-read must still be
    // extracted (pages linked after it see infinity and go through the
    // side-file — the extraction below is then merely redundant, which
    // the tolerant apply handles).  Tail keys land in the last
    // partition's still-open run writer.
    PageId last_scanned = scan_res.tail_last_scanned;
    const size_t tail_writer = plan.parts.size() - 1;
    while (last_scanned != kInvalidPageId) {
      PageId more = kInvalidPageId;
      {
        std::vector<std::pair<Rid, std::string>> probe;
        auto next = heap->ExtractPage(last_scanned, &probe);
        if (!next.ok()) return next.status();
        // Records on last_scanned were already extracted; only the link
        // matters (ExtractPage reads it under the latch).
        more = *next;
      }
      if (more == kInvalidPageId) break;
      std::vector<std::pair<Rid, std::string>> recs;
      auto next = heap->ExtractPage(more, &recs);
      if (!next.ok()) return next.status();
      std::string key_buf;
      for (const auto& [rid, rec] : recs) {
        for (size_t i = 0; i < n; ++i) {
          OIB_RETURN_IF_ERROR(Schema::ExtractKeyTo(
              rec, descs[i].key_cols, descs[i].key_types, &key_buf));
          OIB_RETURN_IF_ERROR(
              sorters[i]->writer(tail_writer)->Add(key_buf, rid));
        }
        ++local.keys_extracted;
        build->keys_done.fetch_add(1, std::memory_order_relaxed);
      }
      ++local.data_pages_scanned;
      last_scanned = more;
    }

    scan_span.set_arg(local.keys_extracted);
    scan_span.End();
    build->SetPhase(obs::BuildPhase::kSortMerge);
    obs::ScopedSpan sort_span(tracer, "sf.sort.merge_prep");
    sort_blobs.clear();
    for (size_t i = 0; i < n; ++i) {
      OIB_RETURN_IF_ERROR(sorters[i]->FinishWriters());
      OIB_RETURN_IF_ERROR(sorters[i]->PrepareMerge());
      local.sort_runs += sorters[i]->runs().size();
      auto b = sorters[i]->CheckpointSortPhase("");
      if (!b.ok()) return b.status();
      sort_blobs.push_back(std::move(*b));
    }
    meta.phase = 2;
    meta.current_rid = PackRid(Rid::Infinity());
    meta.phase_blob = EncodeSfLoadState(0, sort_blobs, "");
    OIB_RETURN_IF_ERROR(SaveBuildMeta(engine_, table, meta));
  } else if (start_phase == 2) {
    OIB_RETURN_IF_ERROR(DecodeSfLoadState(phase_blob, &loading_idx,
                                          &sort_blobs, &loader_blob));
    for (size_t i = loading_idx; i < n; ++i) {
      auto caller = sorters[i]->ResumeSortPhase(sort_blobs[i]);
      if (!caller.ok()) return caller.status();
    }
  }

  // A transaction used only for the unique-verification lock protocol and
  // the side-file application.
  Transaction* txn = engine_->Begin();
  auto abort_build = [&](const Status& cause) -> Status {
    (void)engine_->Rollback(txn);
    OIB_RETURN_IF_ERROR(Cancel(table));
    return cause;
  };

  if (start_phase <= 2) {
    // ---- Phase 2: bottom-up, unlogged, checkpointed load (3.2.4), fed
    // by the final merge — on its own thread when the build is parallel.
    // Checkpoints happen at merge-batch boundaries, where the batch's
    // counters snapshot identifies the merge position the consumer has
    // actually reached (the shared cursor runs ahead under overlap).
    build->SetPhase(obs::BuildPhase::kLoad);
    obs::ScopedSpan load_span(tracer, "sf.load");
    for (uint32_t idx = loading_idx; idx < n; ++idx) {
      BulkLoader loader(trees[idx], engine_->pool(), &options);
      std::unique_ptr<MergeCursor> cursor;
      if (idx == loading_idx && !loader_blob.empty()) {
        auto caller = loader.Resume(loader_blob);
        if (!caller.ok()) return caller.status();
        BufferReader r(*caller);
        std::vector<uint64_t> counters;
        if (!GetCounters(&r, &counters)) {
          return Status::Corruption("sf loader counters");
        }
        auto c = sorters[idx]->OpenMerge(&counters);
        if (!c.ok()) return c.status();
        cursor = std::move(*c);
      } else {
        // After a crash without a loader checkpoint the tree may contain
        // flushed-but-abandoned pages; start from an empty root.
        OIB_RETURN_IF_ERROR(loader.ResetToEmpty());
        auto c = sorters[idx]->OpenMerge(nullptr);
        if (!c.ok()) return c.status();
        cursor = std::move(*c);
      }

      std::string prev_key;
      Rid prev_rid;
      bool has_prev = loader.has_high_key();
      if (has_prev) {
        prev_key = loader.high_key();
        prev_rid = loader.high_rid();
      }
      uint64_t since_ckpt = 0;
      // Feed the hash mirror alongside the loader: bulk-loaded leaves
      // bypass the tree's mutation choke points, so the observer never
      // fires for them.  A resumed build re-scans the whole tree after
      // this phase (see below), so missing the pre-crash prefix is fine.
      HashIndex* hash = catalog->hash_index(ids[idx]);
      auto consume = [&](const BuildPipeline::Batch& mb) -> Status {
        for (const SortItem& item : mb.items) {
          OIB_FAIL_POINT("sf.load");
          if (descs[idx].unique && has_prev && item.key.view() == prev_key &&
              !(item.rid == prev_rid)) {
            OIB_RETURN_IF_ERROR(VerifyUniqueConflict(
                engine_, txn->id(), table, descs[idx].key_cols,
                descs[idx].key_types, item.key.view(), prev_rid, item.rid));
          }
          OIB_RETURN_IF_ERROR(loader.Add(item.key, item.rid));
          if (hash != nullptr) {
            OIB_FAIL_POINT("hash.populate");
            hash->BulkAdd(item.key.view(), item.rid, 0);
          }
          prev_key.assign(item.key.data(), item.key.size());
          prev_rid = item.rid;
          has_prev = true;
          ++local.keys_loaded;
          ++since_ckpt;
          build->keys_done.fetch_add(1, std::memory_order_relaxed);
        }
        if (options.ib_checkpoint_every_keys > 0 &&
            since_ckpt >= options.ib_checkpoint_every_keys) {
          obs::ScopedSpan ckpt_span(tracer, "sf.ckpt");
          std::string counters_blob;
          PutCounters(&counters_blob, mb.counters);
          auto ckpt = loader.Checkpoint(counters_blob);
          if (!ckpt.ok()) return ckpt.status();
          meta.phase = 2;
          meta.phase_blob = EncodeSfLoadState(idx, sort_blobs, *ckpt);
          OIB_RETURN_IF_ERROR(SaveBuildMeta(engine_, table, meta));
          ++local.checkpoints;
          since_ckpt = 0;
        }
        return Status::OK();
      };
      BuildPipeline::MergeStats merge_stats;
      Status s = BuildPipeline::MergeToConsumer(
          cursor.get(), options.merge_batch_keys, options.build_threads > 1,
          consume, &merge_stats);
      if (!s.ok()) {
        if (s.IsInjected()) return s;  // crash-test hook: leave state as-is
        // Rollback latches pages and takes txn-level mutexes; the
        // loader's open leaf/level latches must go first.
        loader.Abandon();
        return abort_build(s);
      }
      local.merge_ms += merge_stats.merge_busy_ms;
      local.load_ms += merge_stats.consume_busy_ms;
      OIB_RETURN_IF_ERROR(loader.Finish());
      OIB_RETURN_IF_ERROR(engine_->pool()->FlushAll());
      meta.phase = 2;
      meta.phase_blob = EncodeSfLoadState(idx + 1, sort_blobs, "");
      OIB_RETURN_IF_ERROR(SaveBuildMeta(engine_, table, meta));
    }
    meta.phase = 3;
    meta.phase_blob = EncodeSfApplyState(0, kInvalidPageId, 0, 0, 0);
    OIB_RETURN_IF_ERROR(SaveBuildMeta(engine_, table, meta));
    phase_blob = meta.phase_blob;
  }

  // A resumed build skipped Catalog::Load's hash population (the tree's
  // tail may have been torn at that point) and phase-2 consume only saw
  // keys loaded in this run, so the mirrors may be missing a prefix — or
  // whole trees loaded before the crash.  Updaters never touch an
  // SF-building tree directly (they route through the side-file), so the
  // trees are stable here and a full rescan rebuilds every mirror.
  if (start_phase >= 2) {
    for (size_t i = 0; i < n; ++i) {
      if (HashIndex* hash = catalog->hash_index(ids[i])) {
        Status s = PopulateHashFromTree(trees[i], hash);
        if (!s.ok()) {
          if (s.IsInjected()) return s;  // crash-test hook
          return abort_build(s);
        }
      }
    }
  }
  auto t_apply = std::chrono::steady_clock::now();

  // ---- Phase 3: side-file application (3.2.5).
  build->SetPhase(obs::BuildPhase::kApply);
  obs::ScopedSpan apply_span(tracer, "sf.apply");
  // Cumulative mirror of build->side_file_applied: paired with
  // records.side_file_appends it lets the time-series sampler plot the
  // side-file backlog without holding a reference to this build.
  obs::Counter* applied_counter =
      obs::MetricsRegistry::Default().GetCounter("sidefile.applied");
  uint32_t applying_idx = 0;
  PageId cur_page = kInvalidPageId;
  SlotId cur_slot = 0;
  uint64_t resume_ordinal = 0, applied = 0;
  OIB_RETURN_IF_ERROR(DecodeSfApplyState(
      start_phase == 3 ? phase_blob : meta.phase_blob, &applying_idx,
      &cur_page, &cur_slot, &resume_ordinal, &applied));

  // Re-load fences (restart may have added some).
  {
    auto loaded = LoadBuildMeta(engine_, table);
    if (loaded.ok()) meta.fences = loaded->fences;
    if (meta.fences.size() != n) meta.fences.assign(n, {});
  }

  auto apply_entry = [&](uint32_t idx, const SideFile::Entry& e) -> Status {
    BTree* tree = trees[idx];
    if (e.op == SideFileOp::kInsertKey) {
      if (descs[idx].unique) {
        // Verify value uniqueness against whatever entry exists.
        auto vm = tree->FindKeyValue(e.key);
        if (!vm.ok()) return vm.status();
        if (vm->found && !(vm->rid == e.rid) && !vm->pseudo_deleted) {
          Status s = VerifyUniqueConflict(engine_, txn->id(), table,
                                          descs[idx].key_cols,
                                          descs[idx].key_types, e.key,
                                          vm->rid, e.rid);
          if (!s.ok()) return s;
        }
      }
      auto r = tree->Insert(txn, e.key, e.rid);
      if (!r.ok()) return r.status();
      // kAlreadyPresent / kReactivated are expected: IB may have loaded
      // the key, or a stale duplicate was filtered by commit/crash races.
      return Status::OK();
    }
    // Delete: remove if present; absent is fine (the corresponding insert
    // entry was lost to a pre-commit crash, or this is a crash-repeated
    // compensation) — see DESIGN.md.
    Status s = tree->PhysicalDelete(txn, e.key, e.rid);
    if (s.IsNotFound()) return Status::OK();
    return s;
  };

  // Per-index side-file position (cursor + ordinal of the next entry).
  // The catch-up loop leaves each at its end of the walk and the final
  // drain continues from there.  Indexes whose catch-up finished before a
  // resume (idx < applying_idx) kept no position and replay from Begin();
  // the apply is idempotent as an in-order replay.
  std::vector<SideFile::Cursor> cursors(n);
  std::vector<uint64_t> ordinals(n, 0);
  for (uint32_t idx = 0; idx < n; ++idx) {
    cursors[idx] = side_files[idx]->Begin();
  }
  if (cur_page != kInvalidPageId) {
    cursors[applying_idx] = SideFile::Cursor{cur_page, cur_slot};
    ordinals[applying_idx] = resume_ordinal;
  }

  for (uint32_t idx = applying_idx; idx < n; ++idx) {
    SideFile::Cursor& cursor = cursors[idx];
    uint64_t& ordinal = ordinals[idx];
    if (idx != applying_idx || cur_page == kInvalidPageId) applied = 0;
    if (options.sf_sort_side_file) {
      // Section 3.2.5 optimization: "IB could sort the entries of the
      // side-file, without modifying the relative positions of the
      // identical keys, before applying those updates to the index."
      // Entries appended while the sorted batch is applied are processed
      // sequentially by the normal loop below.  This pass is not
      // checkpointed (a crash repeats it; the application is idempotent
      // only as a full in-order replay, so the whole batch re-runs).
      std::vector<SideFile::Entry> batch;
      for (;;) {
        std::vector<SideFile::Entry> entries;
        auto got = side_files[idx]->ReadBatch(&cursor, 1024, &entries);
        if (!got.ok()) return abort_build(got.status());
        if (*got == 0) break;
        for (SideFile::Entry& e : entries) {
          if (!FencedOut(meta.fences[idx], ordinal, e.rid)) {
            batch.push_back(std::move(e));
          } else {
            ++local.side_file_skipped_stale;
          }
          ++ordinal;
        }
      }
      // Stable: equal <key, RID> entries keep their append order.
      std::stable_sort(batch.begin(), batch.end(),
                       [](const SideFile::Entry& a, const SideFile::Entry& b) {
                         int c = CompareKeySlice(a.key, b.key);
                         if (c != 0) return c < 0;
                         return a.rid < b.rid;
                       });
      for (const SideFile::Entry& e : batch) {
        Status s = apply_entry(idx, e);
        if (!s.ok()) return abort_build(s);
        ++applied;
        ++local.side_file_applied;
        build->side_file_applied.fetch_add(1, std::memory_order_relaxed);
        applied_counter->Inc();
      }
      OIB_RETURN_IF_ERROR(engine_->Commit(txn));
      ++local.commits;
      txn = engine_->Begin();
    }
    uint64_t since_commit = 0;
    // Section 3.2.5 quiesces updaters when IB gets *close* to the end of
    // the side-file, not at the literal end — and the chase must
    // terminate even when the appenders outpace IB (a read-until-empty
    // loop has no bound: they can append faster than IB applies).  Chase
    // a snapshot of the tail; on reaching it, re-snapshot and go again a
    // fixed number of times; whatever remains is applied under the drain
    // gate below, where appenders are blocked and the walk is finite.
    uint64_t chase_target = side_files[idx]->entries_appended();
    int chase_passes = 0;
    for (;;) {
      OIB_FAIL_POINT("sf.apply");
      obs::ScopedSpan batch_span(tracer, "sf.apply.batch");
      std::vector<SideFile::Entry> entries;
      auto got = side_files[idx]->ReadBatch(&cursor, options.sf_apply_batch,
                                            &entries);
      if (!got.ok()) return abort_build(got.status());
      if (*got == 0) break;  // caught up (for now)
      batch_span.set_arg(*got);
      for (const SideFile::Entry& e : entries) {
        if (FencedOut(meta.fences[idx], ordinal, e.rid)) {
          ++ordinal;
          ++local.side_file_skipped_stale;
          continue;
        }
        ++ordinal;
        Status s = apply_entry(idx, e);
        if (!s.ok()) return abort_build(s);
        ++applied;
        ++local.side_file_applied;
        build->side_file_applied.fetch_add(1, std::memory_order_relaxed);
        applied_counter->Inc();
      }
      since_commit += *got;
      if (since_commit >= options.sf_apply_batch) {
        // Periodic commit + progress checkpoint (3.2.5).
        obs::ScopedSpan ckpt_span(tracer, "sf.ckpt");
        OIB_RETURN_IF_ERROR(engine_->Commit(txn));
        ++local.commits;
        meta.phase = 3;
        meta.phase_blob = EncodeSfApplyState(idx, cursor.page, cursor.slot,
                                             ordinal, applied);
        OIB_RETURN_IF_ERROR(SaveBuildMeta(engine_, table, meta));
        ++local.checkpoints;
        txn = engine_->Begin();
        since_commit = 0;
      }
      if (ordinal >= chase_target) {
        uint64_t appended = side_files[idx]->entries_appended();
        if (appended - ordinal <= options.sf_apply_batch ||
            ++chase_passes >= 3) {
          break;
        }
        chase_target = appended;
      }
    }
  }

  // Final drain under the gate: no transaction can be between its
  // visibility decision and its append, so after applying the residual
  // entries and flipping the flag, every future update goes directly to
  // the index.
  apply_span.End();
  // Finalize edge: drain gate + index publication are next.  Injected
  // here the build aborts cleanly, gate never taken.
  OIB_FAIL_POINT("sf.finalize");
  build->SetPhase(obs::BuildPhase::kDrain);
  {
    obs::ScopedSpan drain_span(tracer, "sf.drain");
    // CloseGate backs new readers off first — a bare lock() could be
    // starved forever by updaters re-acquiring the reader-preferring
    // rwlock (see ActiveBuild).
    sync::UniqueLock gate = build->CloseGate();
    OIB_FAIL_POINT("sf.drain");
    // Residual entries appended since each index's catch-up loop ended:
    // every index continues from its own cursor.
    auto drain = [&]() -> Status {
      for (uint32_t idx = 0; idx < n; ++idx) {
        for (;;) {
          std::vector<SideFile::Entry> entries;
          auto got =
              side_files[idx]->ReadBatch(&cursors[idx], 256, &entries);
          if (!got.ok()) return got.status();
          if (*got == 0) break;
          for (const SideFile::Entry& e : entries) {
            if (FencedOut(meta.fences[idx], ordinals[idx]++, e.rid)) {
              ++local.side_file_skipped_stale;
              continue;
            }
            OIB_RETURN_IF_ERROR(apply_entry(idx, e));
            ++local.side_file_applied;
            build->side_file_applied.fetch_add(1, std::memory_order_relaxed);
            applied_counter->Inc();
          }
        }
      }
      return Status::OK();
    };
    if (Status s = drain(); !s.ok()) {
      // Open updaters hold table IX and may be waiting on the gate;
      // Cancel needs table S, so the gate must open first.  index_build
      // is still set, so updaters keep routing through the side-file.
      gate.Release();
      return abort_build(s);
    }
    // Commit edge: the residual applies must be durable *before* the
    // indexes are published.  SetIndexReady persists the catalog
    // directly, so the reverse order has a crash window where a ready
    // index loses its residual applies to loser-transaction undo at
    // restart (the build is no longer kBuilding, so nothing resumes it).
    // Committing first is safe: a crash before the ready flip leaves a
    // kBuilding index that Resume finishes idempotently.
    OIB_FAIL_POINT("sf.commit");
    OIB_RETURN_IF_ERROR(engine_->Commit(txn));
    ++local.commits;
    for (uint32_t idx = 0; idx < n; ++idx) {
      OIB_RETURN_IF_ERROR(catalog->SetIndexReady(ids[idx]));
    }
    build->index_build.store(false);
    build->SetPhase(obs::BuildPhase::kDone);
  }
  engine_->records()->UnregisterBuild(table);
  OIB_RETURN_IF_ERROR(ClearBuildMeta(engine_, table));
  local.apply_ms = MsSince(t_apply);

  LogStats log_after = engine_->log()->stats();
  local.log_records = log_after.records - log_before.records;
  local.log_bytes = log_after.bytes - log_before.bytes;
  local.key_bytes_moved = engine_->runs()->raw_key_bytes() - key_raw_before;
  local.key_bytes_stored =
      engine_->runs()->stored_key_bytes() - key_stored_before;
  local.elapsed_ms = MsSince(t_run);
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

}  // namespace oib
