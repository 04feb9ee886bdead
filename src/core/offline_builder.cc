// OfflineIndexBuilder: the "current DBMSs" baseline the paper argues
// against (section 1) — updates to the table are disallowed for the whole
// duration of the build via an X table lock.  With exclusive access the
// build is a clean scan -> sort -> bottom-up load with no logging, no
// duplicate handling, and no side-file.  The scan/sort/load machinery is
// the shared BuildPipeline: the heap is scanned in build_threads page
// partitions and the final merge overlaps the bottom-up load.  Benches
// use offline as the availability baseline and as the clustering /
// throughput gold standard.

#include <chrono>

#include "btree/bulk_loader.h"
#include "common/failpoint.h"
#include "core/build_pipeline.h"
#include "core/index_builder.h"
#include "core/schema.h"
#include "obs/trace.h"
#include "sort/external_sorter.h"

namespace oib {

namespace {

constexpr const char* kOfflineScanSpans[] = {
    "offline.scan.p0", "offline.scan.p1", "offline.scan.p2",
    "offline.scan.p3", "offline.scan.p4", "offline.scan.p5",
    "offline.scan.p6", "offline.scan.p7"};

}  // namespace

Status OfflineIndexBuilder::Build(const BuildParams& params, IndexId* out,
                                  BuildStats* stats) {
  Catalog* catalog = engine_->catalog();
  HeapFile* heap = catalog->table(params.table);
  if (heap == nullptr) return Status::NotFound("no such table");
  const Options& options = engine_->options();
  LogStats log_before = engine_->log()->stats();
  uint64_t key_raw_before = engine_->runs()->raw_key_bytes();
  uint64_t key_stored_before = engine_->runs()->stored_key_bytes();
  BuildStats local;

  auto t0 = std::chrono::steady_clock::now();
  // The whole offline build runs under the X lock, so the quiesce span
  // covers everything up to the commit that releases it.
  obs::ScopedSpan quiesce_span(engine_->tracer(), "offline.quiesce");
  Transaction* txn = engine_->Begin();
  LockOptions opt;
  opt.timeout_ms = 60'000;
  OIB_RETURN_IF_ERROR(engine_->locks()->Lock(
      txn->id(), TableLockId(params.table), LockMode::kX, opt));

  auto desc = catalog->CreateIndex(params.name, params.table, params.unique,
                                   params.key_cols, BuildAlgo::kOffline,
                                   params.key_types);
  if (!desc.ok()) {
    (void)engine_->Rollback(txn);
    return desc.status();
  }
  IndexId id = desc->id;
  BTree* tree = catalog->index(id);

  auto abort_build = [&](const Status& cause) -> Status {
    (void)catalog->DropIndex(id);
    (void)engine_->Rollback(txn);
    return cause;
  };

  // Partitioned scan + per-partition run generation.  The X lock freezes
  // the chain, so the plan covers every record.
  obs::ScopedSpan scan_span(engine_->tracer(), "offline.scan");
  ExternalSorter sorter(engine_->runs(), &options);
  ScanPlan plan;
  {
    auto planned =
        PlanPartitionedScan(heap, kInvalidPageId, options.build_threads);
    if (!planned.ok()) return abort_build(planned.status());
    plan = std::move(*planned);
  }
  BuildPipeline::ScanHooks hooks;
  hooks.span_names = kOfflineScanSpans;
  hooks.span_name_count = 8;
  BuildPipeline::ScanResult scan_res;
  {
    Status s = BuildPipeline::RunScan(
        heap, engine_->tracer(),
        {{params.key_cols, params.key_types, &sorter}}, &plan, hooks,
        /*checkpoint_every_keys=*/0, &scan_res);
    if (s.ok()) s = sorter.FinishWriters();
    if (s.ok()) s = sorter.PrepareMerge();
    if (!s.ok()) return abort_build(s);
  }
  local.keys_extracted = scan_res.keys_extracted;
  local.data_pages_scanned = scan_res.pages_scanned;
  local.scan_ms = scan_res.busy_ms;
  local.sort_runs = sorter.runs().size();
  scan_span.set_arg(local.keys_extracted);
  scan_span.End();
  obs::ScopedSpan load_span(engine_->tracer(), "offline.load");

  // Merge -> bottom-up load, overlapped when the build is parallel.
  // Exclusive access means every record is committed, so a unique
  // violation is detectable directly from adjacent sorted keys.
  auto cursor = sorter.OpenMerge();
  if (!cursor.ok()) return abort_build(cursor.status());
  BulkLoader loader(tree, engine_->pool(), &options);
  {
    Status s = loader.Begin();
    if (!s.ok()) {
      loader.Abandon();
      return abort_build(s);
    }
  }
  std::string prev_key;
  bool has_prev = false;
  // The bulk loader writes leaves directly (no tree mutation choke
  // points), so the hash mirror is fed here, alongside each Add.
  HashIndex* hash = catalog->hash_index(id);
  auto consume = [&](const BuildPipeline::Batch& batch) -> Status {
    for (const SortItem& item : batch.items) {
      if (params.unique && has_prev && item.key.view() == prev_key) {
        return Status::UniqueViolation(
            "duplicate key value in offline build");
      }
      OIB_RETURN_IF_ERROR(loader.Add(item.key, item.rid));
      if (hash != nullptr) {
        OIB_FAIL_POINT("hash.populate");
        hash->BulkAdd(item.key.view(), item.rid, 0);
      }
      prev_key.assign(item.key.data(), item.key.size());
      has_prev = true;
      ++local.keys_loaded;
    }
    return Status::OK();
  };
  BuildPipeline::MergeStats merge_stats;
  {
    Status s = BuildPipeline::MergeToConsumer(
        cursor->get(), options.merge_batch_keys, options.build_threads > 1,
        consume, &merge_stats);
    if (!s.ok()) {
      // Rollback latches pages and takes txn-level mutexes; the loader's
      // open leaf/level latches must go first.
      loader.Abandon();
      return abort_build(s);
    }
  }
  {
    Status s = loader.Finish();
    if (s.ok()) s = engine_->pool()->FlushAll();  // unlogged pages
    if (!s.ok()) {
      loader.Abandon();
      return abort_build(s);
    }
  }

  local.merge_ms = merge_stats.merge_busy_ms;
  local.load_ms = merge_stats.consume_busy_ms;
  load_span.set_arg(local.keys_loaded);
  load_span.End();
  OIB_RETURN_IF_ERROR(catalog->SetIndexReady(id));
  OIB_RETURN_IF_ERROR(engine_->Commit(txn));  // releases the X lock

  local.quiesce_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  local.elapsed_ms = local.quiesce_ms;
  LogStats log_after = engine_->log()->stats();
  local.log_records = log_after.records - log_before.records;
  local.log_bytes = log_after.bytes - log_before.bytes;
  local.key_bytes_moved = engine_->runs()->raw_key_bytes() - key_raw_before;
  local.key_bytes_stored =
      engine_->runs()->stored_key_bytes() - key_stored_before;
  if (out != nullptr) *out = id;
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

}  // namespace oib
