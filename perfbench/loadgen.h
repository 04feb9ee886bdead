// Load generator and ledger of the benchmark (oib_perfbench).
//
// The generator drives the engine only through its public API
// (Engine::Begin/Commit/Rollback and RecordManager record calls).  It is
// kept apart from src/core/workload so that a change to the program
// cannot change the offered load.
//
// Rows are split into kShards shards by key id.  A generator thread owns
// the shards s with s % threads == thread, so no two threads ever touch
// the same row and the ledger needs no locks while a phase runs.  kShards
// is a multiple of every thread count that can share the ledger: up to 2
// generator threads during a build, up to 3 clients or checker threads.
//
// The ledger holds what every acknowledged commit left behind: key id ->
// (RID, payload).  Changes made inside a transaction are staged and
// applied only when Commit returns OK.  Record images that must not be
// found any more (deleted rows, replaced versions, rolled-back writes) are
// kept as "dead" images for the post-restart check.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "obs/trace.h"

namespace perfbench {

constexpr uint32_t kShards = 6;
constexpr size_t kKeyWidth = 12;
constexpr size_t kPayloadWidth = 32;
// Random part of a payload; the rest is a stamp unique per version, so
// the payload column is unique and in no relation to heap order.
constexpr size_t kPayloadRandom = 20;

std::string KeyOf(uint64_t id);
std::string ImageOf(uint64_t id, const std::string& payload);

struct Row {
  oib::Rid rid;
  std::string payload;
  size_t pos = 0;  // index in Shard::live
};

class Ledger {
 public:
  struct Shard {
    std::vector<uint64_t> live;  // key ids, for uniform picks
    std::unordered_map<uint64_t, Row> rows;
    std::vector<std::string> dead;  // record images that must be absent
    uint64_t next_key_seq = 0;
    uint64_t next_stamp = 0;
  };

  // Key ids below `first_new_id` belong to the populated table.
  explicit Ledger(uint64_t first_new_id);

  Shard& shard(uint32_t s) { return shards_[s]; }
  const Shard& shard(uint32_t s) const { return shards_[s]; }
  static uint32_t ShardOf(uint64_t id) { return id % kShards; }

  uint64_t NewKeyId(uint32_t s);
  std::string NewPayload(uint32_t s, oib::Random* rng);
  void Put(uint64_t id, const oib::Rid& rid, std::string payload);
  void Erase(uint64_t id);

 private:
  uint64_t base_;
  std::vector<Shard> shards_;
};

// Operation mix of one phase.
struct Mix {
  double write_share = 0.8;  // share of transactions that write
  uint32_t ops_per_write_txn = 4;
  double insert_pct = 0.3;  // of write ops; delete_pct likewise, the
  double delete_pct = 0.3;  // rest are updates
  double update_changes_key = 0.5;
  double rollback_pct = 0.05;
};

// Everything a phase measured, merged over its threads.  Times in ns.
struct PhaseStats {
  std::vector<uint64_t> write_lat, read_lat;  // per transaction
  std::vector<uint64_t> late;                 // generator oversleep
  std::vector<uint64_t> insert_ns, update_ns, delete_ns, read_ns;
  std::vector<uint64_t> commit_ns, rollback_ns;
  uint64_t attempted = 0;  // transactions started
  uint64_t failed = 0;     // an engine call returned an error
  uint64_t write_commits = 0;
  uint64_t rollbacks = 0;  // deliberate
  uint64_t reads = 0;      // read transactions that returned the row
  uint64_t mismatches = 0;  // a read disagreed with the ledger
  std::string first_error;

  void Merge(const PhaseStats& o);
};

// Where reads resolve: an index and the columns its key covers.
struct ReadPath {
  oib::IndexId index = oib::kInvalidIndexId;
  std::vector<uint32_t> key_cols;
};

// Runs single transactions of the mix against the engine and the ledger.
class TxnRunner {
 public:
  // With a tracer, spans are recorded for the transactions whose id is a
  // multiple of `span_every`.
  TxnRunner(oib::Engine* engine, oib::TableId table, Ledger* ledger, Mix mix,
         ReadPath read, oib::obs::Tracer* tracer, uint64_t span_every)
      : engine_(engine),
        table_(table),
        ledger_(ledger),
        mix_(mix),
        read_(std::move(read)),
        tracer_(tracer),
        span_every_(span_every) {}

  // One transaction by `thread` of `threads`, due at `due_ns`; its
  // latency counts from the due time.  Spans carry the transaction id.
  void RunTxn(uint32_t thread, uint32_t threads, oib::Random* rng,
              uint64_t due_ns, PhaseStats* st);

 private:
  struct Staged;
  bool WriteTxn(uint32_t shard, oib::Random* rng, oib::Transaction* txn,
                std::vector<Staged>* staged, PhaseStats* st);
  bool ReadTxn(uint32_t shard, oib::Random* rng, oib::Transaction* txn,
               PhaseStats* st);
  void Span(const char* name, uint64_t t0, uint64_t t1, uint64_t txn_id) {
    if (tracer_ != nullptr && txn_id % span_every_ == 0) {
      tracer_->Record(name, t0, t1, txn_id);
    }
  }

  oib::Engine* engine_;
  oib::TableId table_;
  Ledger* ledger_;
  Mix mix_;
  ReadPath read_;
  oib::obs::Tracer* tracer_;
  uint64_t span_every_;
};

// Open loop: `threads` threads issue transactions at a fixed total rate
// from Start() until Stop().  Thread t takes every threads-th due time.
// Each thread sleeps (never spins) until its next due time, with 1 ns
// timer slack on its own thread.  Only transactions due inside
// [window_begin, window_end) are kept in the result.
class OpenLoop {
 public:
  OpenLoop(TxnRunner* runner, uint32_t threads, double rate_per_s,
           uint64_t seed);
  ~OpenLoop();
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  void Start();
  void set_window_begin(uint64_t ns) { window_begin_.store(ns); }
  // Stops issuing, joins the threads and returns the window's stats.
  PhaseStats Stop();

 private:
  void Loop(uint32_t t);

  TxnRunner* runner_;
  uint32_t threads_;
  uint64_t period_ns_;
  uint64_t seed_;
  uint64_t t0_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> window_begin_{0};
  std::atomic<uint64_t> window_end_{~0ull};
  std::vector<PhaseStats> stats_;
  std::vector<std::thread> workers_;
};

// Closed loop: `clients` threads run `total_txns` transactions between
// them, back to back.  Returns the stats and the window's wall time.
PhaseStats RunClosedLoop(TxnRunner* runner, uint32_t clients,
                         uint64_t total_txns, uint64_t seed,
                         double* window_s);

// Sets 1 ns timer slack on the calling thread.
void SetTightTimerSlack();

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
