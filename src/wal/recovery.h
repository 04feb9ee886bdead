// RecoveryManager: restart recovery (analysis + redo + undo).
//
// A single forward pass over the durable log performs analysis (rebuilding
// the active-transaction table) and redo (repeating history, guarded by
// page LSNs); loser transactions are then rolled back through the normal
// undo path, writing CLRs.  Recovery can start from a *sharp* checkpoint:
// the engine flushes all dirty pages, logs a Checkpoint record carrying the
// active-transaction table, and stores that record's LSN in disk metadata.
//
// Redo is applied inline as the analysis scan reaches each record, in log
// order, so there is no separate redo pass and no in-memory copy of the
// log.  Every RM's redo is guarded by its page LSN, so replaying a record
// whose effect is already on the page is a no-op and a crash during
// recovery simply repeats the pass.
//
// This is the machinery the paper leans on when it argues that logging by
// IB (NSF) or during side-file processing (SF) leaves the index
// "structurally consistent after restart" (sections 2.2.3, 3.2.4).

#ifndef OIB_WAL_RECOVERY_H_
#define OIB_WAL_RECOVERY_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "txn/transaction_manager.h"
#include "wal/log_manager.h"
#include "wal/resource_manager.h"

namespace oib {

struct RecoveryStats {
  uint64_t records_scanned = 0;
  uint64_t records_redone = 0;
  uint64_t loser_txns = 0;
  // Wall-clock of the analysis scan and of loser rollback.  Redo runs
  // inside the analysis scan, so redo time is counted in analysis_ns and
  // redo_ns stays 0 (kept so existing reports keep their shape).
  uint64_t analysis_ns = 0;
  uint64_t redo_ns = 0;
  uint64_t undo_ns = 0;
};

// Serialization helpers for the Checkpoint record payload.
std::string EncodeCheckpointPayload(
    const std::vector<std::pair<TxnId, Lsn>>& active);
Status DecodeCheckpointPayload(const std::string& payload,
                               std::vector<std::pair<TxnId, Lsn>>* active);

class RecoveryManager {
 public:
  RecoveryManager(LogManager* log, TransactionManager* txns, RmRegistry* rms)
      : log_(log), txns_(txns), rms_(rms) {}

  // Phase 1+2: analysis and redo in one forward pass.  `checkpoint_lsn` is
  // the LSN of the last sharp checkpoint record, or kInvalidLsn to scan the
  // whole log.  Outputs the loser transactions (id, last_lsn).
  Status AnalyzeAndRedo(Lsn checkpoint_lsn,
                        std::vector<std::pair<TxnId, Lsn>>* losers,
                        RecoveryStats* stats = nullptr);

  // Phase 3: rolls back the losers.  Called after the engine has re-opened
  // catalog objects, because B+-tree undo is logical and needs live tree
  // objects to traverse.
  Status UndoLosers(const std::vector<std::pair<TxnId, Lsn>>& losers,
                    RecoveryStats* stats = nullptr);

 private:
  LogManager* log_;
  TransactionManager* txns_;
  RmRegistry* rms_;
};

}  // namespace oib

#endif  // OIB_WAL_RECOVERY_H_
