#include "wal/recovery.h"

#include <map>

#include "common/coding.h"
#include "obs/trace.h"

namespace oib {

std::string EncodeCheckpointPayload(
    const std::vector<std::pair<TxnId, Lsn>>& active) {
  std::string out;
  PutFixed32(&out, static_cast<uint32_t>(active.size()));
  for (const auto& [id, lsn] : active) {
    PutFixed64(&out, id);
    PutFixed64(&out, lsn);
  }
  return out;
}

Status DecodeCheckpointPayload(const std::string& payload,
                               std::vector<std::pair<TxnId, Lsn>>* active) {
  BufferReader r(payload);
  uint32_t n;
  if (!r.GetFixed32(&n)) return Status::Corruption("checkpoint payload");
  active->clear();
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t id, lsn;
    if (!r.GetFixed64(&id) || !r.GetFixed64(&lsn)) {
      return Status::Corruption("checkpoint payload entry");
    }
    active->emplace_back(id, lsn);
  }
  return Status::OK();
}

Status RecoveryManager::AnalyzeAndRedo(
    Lsn checkpoint_lsn, std::vector<std::pair<TxnId, Lsn>>* losers,
    RecoveryStats* stats) {
  RecoveryStats local;
  std::map<TxnId, Lsn> txn_table;  // active (potential loser) transactions
  TxnId max_txn_seen = 0;

  Lsn scan_start = kInvalidLsn;
  if (checkpoint_lsn != kInvalidLsn) {
    LogRecord ckpt;
    OIB_RETURN_IF_ERROR(log_->ReadRecord(checkpoint_lsn, &ckpt));
    if (ckpt.type != LogRecordType::kCheckpoint) {
      return Status::Corruption("checkpoint LSN does not name a checkpoint");
    }
    std::vector<std::pair<TxnId, Lsn>> active;
    OIB_RETURN_IF_ERROR(DecodeCheckpointPayload(ckpt.redo, &active));
    for (const auto& [id, lsn] : active) {
      txn_table[id] = lsn;
      max_txn_seen = std::max(max_txn_seen, id);
    }
    scan_start = checkpoint_lsn;
  }

  // Analysis pass, which is also the redo pass (interleaving is safe
  // because every redo is guarded by a page-LSN comparison inside the RM).
  uint64_t t0 = obs::MonotonicNanos();
  Status inner = Status::OK();
  OIB_RETURN_IF_ERROR(log_->ScanDurable(
      scan_start, [&](const LogRecord& rec) {
        ++local.records_scanned;
        if (rec.txn_id != kInvalidTxnId) {
          max_txn_seen = std::max(max_txn_seen, rec.txn_id);
          switch (rec.type) {
            case LogRecordType::kCommit:
            case LogRecordType::kAbort:
              txn_table.erase(rec.txn_id);
              break;
            default:
              txn_table[rec.txn_id] = rec.lsn;
              break;
          }
        }
        if (rec.RequiresRedo() && rec.rm_id != RmId::kNone) {
          ResourceManager* rm = rms_->Get(rec.rm_id);
          if (rm == nullptr) {
            inner = Status::Corruption("no RM for redo dispatch");
            return false;
          }
          Status s = rm->Redo(rec);
          if (!s.ok()) {
            inner = s;
            return false;
          }
          ++local.records_redone;
        }
        return true;
      }));
  OIB_RETURN_IF_ERROR(inner);
  local.analysis_ns = obs::MonotonicNanos() - t0;

  txns_->BumpNextTxnId(max_txn_seen);

  losers->clear();
  for (const auto& [id, last_lsn] : txn_table) {
    losers->emplace_back(id, last_lsn);
  }
  local.loser_txns = losers->size();
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

Status RecoveryManager::UndoLosers(
    const std::vector<std::pair<TxnId, Lsn>>& losers, RecoveryStats* stats) {
  uint64_t t0 = obs::MonotonicNanos();
  // Each transaction's chain is independent, so per-txn rollback order
  // does not matter.
  for (const auto& [id, last_lsn] : losers) {
    Transaction* loser = txns_->AdoptLoser(id, last_lsn);
    OIB_RETURN_IF_ERROR(txns_->Rollback(loser));
  }
  if (stats != nullptr) {
    stats->loser_txns = losers.size();
    stats->undo_ns = obs::MonotonicNanos() - t0;
  }
  OIB_RETURN_IF_ERROR(log_->FlushAll());
  return Status::OK();
}

}  // namespace oib
