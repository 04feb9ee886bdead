#include "perfbench/loadgen.h"

#include <sys/prctl.h>
#include <time.h>

#include <algorithm>

#include "core/schema.h"

namespace perfbench {

using oib::obs::MonotonicNanos;

namespace {

constexpr uint64_t kNone = ~0ull;

void SleepUntil(uint64_t ns) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(ns / 1000000000ull);
  ts.tv_nsec = static_cast<long>(ns % 1000000000ull);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

template <typename T>
void Append(std::vector<T>* to, const std::vector<T>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

}  // namespace

void SetTightTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

std::string KeyOf(uint64_t id) {
  std::string digits = std::to_string(id);
  if (digits.size() < kKeyWidth) {
    digits.insert(0, kKeyWidth - digits.size(), '0');
  }
  return digits;
}

std::string ImageOf(uint64_t id, const std::string& payload) {
  return oib::Schema::EncodeRecord({KeyOf(id), payload});
}

Ledger::Ledger(uint64_t first_new_id)
    : base_((first_new_id + kShards - 1) / kShards * kShards),
      shards_(kShards) {}

uint64_t Ledger::NewKeyId(uint32_t s) {
  return base_ + shards_[s].next_key_seq++ * kShards + s;
}

std::string Ledger::NewPayload(uint32_t s, oib::Random* rng) {
  std::string stamp = std::to_string(shards_[s].next_stamp++ * kShards + s);
  std::string p = rng->NextString(kPayloadRandom);
  p.append(kPayloadWidth - kPayloadRandom - stamp.size(), '0');
  p += stamp;
  return p;
}

void Ledger::Put(uint64_t id, const oib::Rid& rid, std::string payload) {
  Shard& sh = shards_[ShardOf(id)];
  Row& row = sh.rows[id];
  row.rid = rid;
  row.payload = std::move(payload);
  row.pos = sh.live.size();
  sh.live.push_back(id);
}

void Ledger::Erase(uint64_t id) {
  Shard& sh = shards_[ShardOf(id)];
  auto it = sh.rows.find(id);
  size_t pos = it->second.pos;
  uint64_t moved = sh.live.back();
  sh.live[pos] = moved;
  sh.rows[moved].pos = pos;
  sh.live.pop_back();
  sh.rows.erase(it);
}

void PhaseStats::Merge(const PhaseStats& o) {
  Append(&write_lat, o.write_lat);
  Append(&read_lat, o.read_lat);
  Append(&late, o.late);
  Append(&insert_ns, o.insert_ns);
  Append(&update_ns, o.update_ns);
  Append(&delete_ns, o.delete_ns);
  Append(&read_ns, o.read_ns);
  Append(&commit_ns, o.commit_ns);
  Append(&rollback_ns, o.rollback_ns);
  attempted += o.attempted;
  failed += o.failed;
  write_commits += o.write_commits;
  rollbacks += o.rollbacks;
  reads += o.reads;
  mismatches += o.mismatches;
  if (first_error.empty()) first_error = o.first_error;
}

// One write of a transaction, applied to the ledger only on commit.
struct TxnRunner::Staged {
  uint64_t old_id = kNone;  // erased on commit
  uint64_t new_id = kNone;  // put on commit
  oib::Rid rid;
  std::string payload;
  std::string old_image;  // dead once committed
  std::string new_image;  // dead if rolled back
};

namespace {

void NoteError(PhaseStats* st, const char* what, const oib::Status& s) {
  if (st->first_error.empty()) {
    st->first_error = std::string(what) + ": " + s.ToString();
  }
}

// Picks a live row of the shard that this transaction has not touched;
// kNone if the shard has too few rows.
uint64_t PickRow(const Ledger::Shard& sh, const std::vector<uint64_t>& touched,
                 oib::Random* rng) {
  if (sh.live.size() <= touched.size()) return kNone;
  for (;;) {
    uint64_t id = sh.live[rng->Uniform(sh.live.size())];
    if (std::find(touched.begin(), touched.end(), id) == touched.end()) {
      return id;
    }
  }
}

}  // namespace

bool TxnRunner::WriteTxn(uint32_t shard, oib::Random* rng,
                         oib::Transaction* txn, std::vector<Staged>* staged,
                         PhaseStats* st) {
  oib::RecordManager* rm = engine_->records();
  Ledger::Shard& sh = ledger_->shard(shard);
  std::vector<uint64_t> touched;
  for (uint32_t op = 0; op < mix_.ops_per_write_txn; ++op) {
    double dice = rng->NextDouble();
    uint64_t target =
        dice < mix_.insert_pct ? kNone : PickRow(sh, touched, rng);
    Staged s;
    if (target == kNone) {
      s.new_id = ledger_->NewKeyId(shard);
      s.payload = ledger_->NewPayload(shard, rng);
      s.new_image = ImageOf(s.new_id, s.payload);
      uint64_t t0 = MonotonicNanos();
      auto rid = rm->InsertRecord(txn, table_, s.new_image);
      uint64_t t1 = MonotonicNanos();
      st->insert_ns.push_back(t1 - t0);
      Span("rm.insert", t0, t1, txn->id());
      staged->push_back(std::move(s));
      if (!rid.ok()) {
        NoteError(st, "insert", rid.status());
        return false;
      }
      staged->back().rid = *rid;
      continue;
    }
    touched.push_back(target);
    const Row& row = sh.rows.at(target);
    s.old_id = target;
    s.rid = row.rid;
    s.old_image = ImageOf(target, row.payload);
    oib::Status status;
    uint64_t t0 = MonotonicNanos();
    if (dice < mix_.insert_pct + mix_.delete_pct) {
      status = rm->DeleteRecord(txn, table_, row.rid);
      uint64_t t1 = MonotonicNanos();
      st->delete_ns.push_back(t1 - t0);
      Span("rm.delete", t0, t1, txn->id());
    } else {
      bool change_key = rng->Bernoulli(mix_.update_changes_key);
      s.new_id = change_key ? ledger_->NewKeyId(shard) : target;
      s.payload = ledger_->NewPayload(shard, rng);
      s.new_image = ImageOf(s.new_id, s.payload);
      t0 = MonotonicNanos();
      status = rm->UpdateRecord(txn, table_, row.rid, s.new_image);
      uint64_t t1 = MonotonicNanos();
      st->update_ns.push_back(t1 - t0);
      Span("rm.update", t0, t1, txn->id());
    }
    staged->push_back(std::move(s));
    if (!status.ok()) {
      NoteError(st, "write", status);
      return false;
    }
  }
  return true;
}

bool TxnRunner::ReadTxn(uint32_t shard, oib::Random* rng,
                        oib::Transaction* txn, PhaseStats* st) {
  const Ledger::Shard& sh = ledger_->shard(shard);
  uint64_t target = PickRow(sh, {}, rng);
  if (target == kNone) return true;
  std::string image = ImageOf(target, sh.rows.at(target).payload);
  auto key = oib::Schema::ExtractKey(image, read_.key_cols);
  if (!key.ok()) {
    NoteError(st, "extract", key.status());
    return false;
  }
  uint64_t t0 = MonotonicNanos();
  auto rec = engine_->records()->ReadRecordByKey(txn, table_, read_.index,
                                                 *key);
  uint64_t t1 = MonotonicNanos();
  st->read_ns.push_back(t1 - t0);
  Span("rm.read_by_key", t0, t1, txn->id());
  if (rec.ok() && *rec == image) {
    ++st->reads;
    return true;
  }
  if (rec.ok() || rec.status().IsNotFound()) {
    // The ledger row was committed by this very thread: the engine must
    // return exactly it.
    ++st->mismatches;
    if (st->first_error.empty()) {
      st->first_error = "read of key " + KeyOf(target) + " returned " +
                        (rec.ok() ? "a different record" : "NotFound");
    }
    return true;
  }
  NoteError(st, "read", rec.status());
  return false;
}

void TxnRunner::RunTxn(uint32_t thread, uint32_t threads, oib::Random* rng,
                    uint64_t due_ns, PhaseStats* st) {
  uint32_t shard =
      thread + threads * static_cast<uint32_t>(rng->Uniform(kShards / threads));
  bool write = rng->Bernoulli(mix_.write_share);
  bool deliberate = rng->Bernoulli(mix_.rollback_pct);
  uint64_t begin = MonotonicNanos();
  oib::Transaction* txn = engine_->Begin();
  uint64_t txn_id = txn->id();
  ++st->attempted;
  std::vector<Staged> staged;
  bool ok = write ? WriteTxn(shard, rng, txn, &staged, st)
                  : ReadTxn(shard, rng, txn, st);
  bool commit = ok && !(write && deliberate);
  oib::Status s;
  uint64_t t0 = MonotonicNanos();
  if (commit) {
    s = engine_->Commit(txn);
    uint64_t t1 = MonotonicNanos();
    if (write) {
      st->commit_ns.push_back(t1 - t0);
      Span("txn.commit", t0, t1, txn_id);
    }
    if (!s.ok()) NoteError(st, "commit", s);
  } else {
    s = engine_->Rollback(txn);
    uint64_t t1 = MonotonicNanos();
    st->rollback_ns.push_back(t1 - t0);
    Span("txn.rollback", t0, t1, txn_id);
    if (!s.ok()) NoteError(st, "rollback", s);
  }
  uint64_t end = MonotonicNanos();
  Span(write ? "txn.write" : "txn.read", begin, end, txn_id);
  if (!ok || !s.ok()) ++st->failed;

  Ledger::Shard& sh = ledger_->shard(shard);
  if (commit && s.ok()) {
    for (Staged& w : staged) {
      if (w.old_id != kNone) {
        ledger_->Erase(w.old_id);
        sh.dead.push_back(std::move(w.old_image));
      }
      if (w.new_id != kNone) ledger_->Put(w.new_id, w.rid, w.payload);
    }
    if (write) ++st->write_commits;
  } else {
    for (Staged& w : staged) {
      if (!w.new_image.empty()) sh.dead.push_back(std::move(w.new_image));
    }
    if (ok && write) ++st->rollbacks;
  }
  (write ? st->write_lat : st->read_lat).push_back(end - due_ns);
}

OpenLoop::OpenLoop(TxnRunner* runner, uint32_t threads, double rate_per_s,
                   uint64_t seed)
    : runner_(runner),
      threads_(threads),
      period_ns_(static_cast<uint64_t>(1e9 / rate_per_s)),
      seed_(seed),
      stats_(threads) {}

OpenLoop::~OpenLoop() {
  if (!workers_.empty()) Stop();
}

void OpenLoop::Start() {
  t0_ = MonotonicNanos();
  for (uint32_t t = 0; t < threads_; ++t) {
    workers_.emplace_back([this, t] { Loop(t); });
  }
}

void OpenLoop::Loop(uint32_t t) {
  SetTightTimerSlack();
  oib::obs::SetCurrentThreadName("gen.open." + std::to_string(t));
  oib::Random rng(seed_ * 0x9e3779b97f4a7c15ull + t + 1);
  PhaseStats& st = stats_[t];
  PhaseStats discard;
  for (uint64_t k = 0;; ++k) {
    uint64_t due = t0_ + (t + k * threads_) * period_ns_;
    if (stop_.load(std::memory_order_acquire)) break;
    uint64_t now = MonotonicNanos();
    bool slept = now < due;
    if (slept) {
      SleepUntil(due);
      now = MonotonicNanos();
    }
    if (due >= window_end_.load(std::memory_order_acquire)) break;
    bool in_window = due >= window_begin_.load(std::memory_order_acquire);
    if (slept && in_window) st.late.push_back(now - due);
    runner_->RunTxn(t, threads_, &rng, due, in_window ? &st : &discard);
    if (!in_window) {
      // Warm-up transactions change the ledger like any other but are
      // not measured; their errors still count.
      st.attempted += discard.attempted;
      st.failed += discard.failed;
      st.mismatches += discard.mismatches;
      if (st.first_error.empty()) st.first_error = discard.first_error;
      discard = PhaseStats();
    }
  }
}

PhaseStats OpenLoop::Stop() {
  window_end_.store(MonotonicNanos(), std::memory_order_release);
  stop_.store(true, std::memory_order_release);
  for (std::thread& w : workers_) w.join();
  workers_.clear();
  PhaseStats total;
  for (const PhaseStats& s : stats_) total.Merge(s);
  return total;
}

PhaseStats RunClosedLoop(TxnRunner* runner, uint32_t clients,
                         uint64_t total_txns, uint64_t seed,
                         double* window_s) {
  std::vector<PhaseStats> stats(clients);
  std::atomic<uint32_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < clients; ++c) {
    uint64_t n = total_txns / clients + (c < total_txns % clients ? 1 : 0);
    threads.emplace_back([&, c, n] {
      SetTightTimerSlack();
      oib::obs::SetCurrentThreadName("gen.closed." + std::to_string(c));
      oib::Random rng(seed * 0x9e3779b97f4a7c15ull + 0x51ed + c);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (uint64_t i = 0; i < n; ++i) {
        runner->RunTxn(c, clients, &rng, MonotonicNanos(), &stats[c]);
      }
    });
  }
  while (ready.load() < clients) std::this_thread::yield();
  uint64_t t0 = MonotonicNanos();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  *window_s = static_cast<double>(MonotonicNanos() - t0) / 1e9;
  PhaseStats total;
  for (const PhaseStats& s : stats) total.Merge(s);
  return total;
}

}  // namespace perfbench
