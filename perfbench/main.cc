// oib_perfbench: one workload per process, every round in four phases.
//
//   setup    populate the table, build the serving index offline, then
//            Engine::Checkpoint (restart covers only the measured log);
//   build    an NSF or SF online build while the open-loop generator
//            offers transactions at a fixed rate;
//   serve    a closed-loop window of a fixed number of transactions;
//   restart  SimulateCrash, Engine::Restart, then the correctness checks.
//
// Rounds repeat on a fresh in-memory Env until --seconds have passed (at
// least kMinRounds).  Times per round are reported as medians over the
// rounds; latencies are percentiles of all samples of all rounds.
//
// Usage: oib_perfbench --workload <name> --seed <n> --seconds <s>
//                      [--trace-out <file>]
// With --trace-out the run records spans around every call it makes into
// the engine, times direct probes of the index and heap layers, prints the
// per-layer metrics and writes a Chrome trace to the file.  The last line
// of standard output is the JSON result.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "btree/tree_verifier.h"
#include "core/engine.h"
#include "core/index_builder.h"
#include "core/index_verifier.h"
#include "core/schema.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "perfbench/loadgen.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using oib::obs::MonotonicNanos;

constexpr int kMinRounds = 3;
// One generator thread during the build and one closed-loop client while
// serving: with more, threads of the generator contend with each other and
// every futex hand-off can cost a vCPU wake-up of several ms on a shared
// host, which then dominates the figures (see README).
constexpr uint32_t kBuildThreads = 1;
constexpr uint32_t kServeClients = 1;
constexpr uint32_t kCheckThreads = 3;  // divides kShards
constexpr uint64_t kCheckSampleEvery = 16;
constexpr uint64_t kWarmupNs = 20'000'000;  // traffic before the build starts
constexpr size_t kProbeKeys = 2000;         // direct probes per round (traced)
// Serve-window transactions traced: one in kServeSpanEvery, so that the
// span ring keeps every build-phase span of every round.
constexpr uint64_t kServeSpanEvery = 16;
constexpr double kMiB = 1024.0 * 1024.0;

struct IndexSpec {
  const char* name;
  std::vector<uint32_t> cols;
  bool unique;
};

struct Workload {
  const char* name;
  oib::BuildAlgo algo;
  std::vector<IndexSpec> build;  // >1 = SfIndexBuilder::BuildMany
  uint64_t rows;
  size_t pool_pages;
  bool hash;
  uint32_t read_delay_us;
  double build_rate;  // transactions per second, both generator threads
  Mix mix;
  uint64_t serve_txns;
};

// Key column 0 holds the key in heap order; column 1 the payload, in no
// order.  Every table also has the serving index "pk" (unique, column 0),
// built offline in setup.
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> w = {
      {"sf_write_heavy", oib::BuildAlgo::kSf,
       {{"k2", {0}, false}},
       200000, 16384, false, 0, 3000.0,
       Mix{0.8, 4, 0.3, 0.3, 0.5, 0.05}, 20000},
      {"nsf_read_mostly_io_bound", oib::BuildAlgo::kNsf,
       {{"ux", {0}, true}},
       150000, 512, true, 20, 1000.0,
       Mix{0.1, 1, 0.3, 0.3, 0.5, 0.05}, 20000},
      {"sf_multi_index_random_keys", oib::BuildAlgo::kSf,
       {{"pay", {1}, false}, {"paykey", {1, 0}, true}},
       200000, 16384, false, 0, 2000.0,
       Mix{0.5, 4, 0.3, 0.3, 0.5, 0.05}, 15000},
  };
  return w;
}

double Seconds(uint64_t t0, uint64_t t1) {
  return static_cast<double>(t1 - t0) / 1e9;
}

// Nearest-rank percentile of ns samples, in µs; 0 when empty.
double PctUs(std::vector<uint64_t> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return static_cast<double>(v[rank]) / 1e3;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// Per-round results.  Lower-level figures feed the per-layer metrics.
struct Round {
  double setup_s = 0, build_s = 0, restart_s = 0, wal_mb = 0, db_mb = 0;
  PhaseStats build, serve;
  double serve_window_s = 0;
  oib::BuildStats bstats;
  oib::RecoveryStats rstats;
  uint64_t side_file_appends = 0, lock_waits = 0;
  double lock_wait_ms = 0;
  oib::LogStats wal;  // delta from the setup checkpoint to the crash
  uint64_t pool_hits = 0, pool_misses = 0, pool_evictions = 0;
  uint64_t disk_reads = 0;
  uint64_t hash_hits = 0, hash_misses = 0, hash_fallbacks = 0;
  std::vector<uint64_t> probe_ns, find_ns, heap_read_ns;
  double entries_per_leaf = 0;
  uint64_t index_pages = 0;
  uint64_t wal_after_setup = 0, wal_after_build = 0, wal_after_serve = 0;
  uint64_t checks = 0;  // correctness reads and verifier passes
};

// First correctness failure of the run; checks run on several threads.
class Failure {
 public:
  void Note(const std::string& what) {
    std::lock_guard<std::mutex> g(mu_);
    if (msg_.empty()) msg_ = what;
  }
  bool failed() const {
    std::lock_guard<std::mutex> g(mu_);
    return !msg_.empty();
  }
  std::string msg() const {
    std::lock_guard<std::mutex> g(mu_);
    return msg_;
  }

 private:
  mutable std::mutex mu_;
  std::string msg_;
};

// Runs fn(i) for i in [0, n) on n threads and waits for all of them.
template <typename Fn>
void Parallel(size_t n, const Fn& fn) {
  std::vector<std::thread> threads;
  for (size_t i = 0; i < n; ++i) threads.emplace_back([&fn, i] { fn(i); });
  for (std::thread& t : threads) t.join();
}

struct Context {
  const Workload* w;
  uint64_t seed;
  oib::obs::Tracer* tracer;  // null = untraced
  Failure* fail;
  // Traced runs: spans the engine itself recorded (Tracer::Default) during
  // the build and restart phases, merged into the Chrome trace.
  std::vector<oib::obs::Span>* engine_spans;
};

// The engine's tracer is a small ring; it is emptied before a traced phase
// and copied out after it, while no engine thread runs.
void BeginEngineSpans(const Context& cx) {
  if (cx.tracer != nullptr) oib::obs::Tracer::Default().Reset();
}
void EndEngineSpans(const Context& cx) {
  if (cx.tracer == nullptr) return;
  std::vector<oib::obs::Span> spans = oib::obs::Tracer::Default().Snapshot();
  cx.engine_spans->insert(cx.engine_spans->end(), spans.begin(), spans.end());
}

oib::InMemoryDisk* MemDisk(oib::Engine* e) {
  return static_cast<oib::InMemoryDisk*>(e->disk());
}

// IndexVerifier on every index of the table, one thread per index: the
// index holds exactly the committed table, and the tree passes the tree
// verifier (IndexVerifier runs TreeVerifier::Check).  The read delay is
// lifted: checks are not measured.
void VerifyIndexes(const Context& cx, oib::Engine* e, oib::TableId table,
                   const char* when, Round* r) {
  MemDisk(e)->set_read_delay_us(0);
  std::vector<oib::IndexDescriptor> indexes = e->catalog()->IndexesOf(table);
  Parallel(indexes.size(), [&](size_t i) {
    const oib::IndexDescriptor& d = indexes[i];
    auto rep = oib::IndexVerifier(e).Verify(table, d.id);
    if (!rep.ok() || !rep->ok) {
      cx.fail->Note(std::string(when) + ": IndexVerifier on " + d.name +
                    ": " + (rep.ok() ? rep->error : rep.status().ToString()));
    }
  });
  r->checks += indexes.size();
  MemDisk(e)->set_read_delay_us(cx.w->read_delay_us);
}

// After restart: every ledger row reads back by key through every index
// with its committed record, and no dead image is found.  A dead image's
// payload never returns (stamps are unique per version), so it must be
// absent from every index that covers the payload; from a key-only index
// it must be absent unless its key id is live again in the ledger.
// Shards are checked on kCheckThreads threads.  Round 0 checks every row
// and every dead image; later rounds check the ones whose key id is a
// multiple of kCheckSampleEvery (IndexVerifier still covers every row).
void CheckLedger(const Context& cx, oib::Engine* e, oib::TableId table,
                 const Ledger& ledger, uint64_t round, Round* r) {
  const uint64_t every = round == 0 ? 1 : kCheckSampleEvery;
  MemDisk(e)->set_read_delay_us(0);
  oib::RecordManager* rm = e->records();
  std::vector<oib::IndexDescriptor> indexes = e->catalog()->IndexesOf(table);
  std::vector<uint64_t> checks(kCheckThreads, 0);
  Parallel(kCheckThreads, [&](size_t c) {
    oib::Transaction* txn = e->Begin();
    auto read = [&](const oib::IndexDescriptor& d, const std::string& image) {
      if (++checks[c] % 1024 == 0) {
        if (!e->Commit(txn).ok()) cx.fail->Note("check commit failed");
        txn = e->Begin();
      }
      auto key = oib::Schema::ExtractKey(image, d.key_cols);
      if (!key.ok()) return oib::StatusOr<std::string>(key.status());
      return rm->ReadRecordByKey(txn, table, d.id, *key);
    };
    for (uint32_t s = c; s < kShards; s += kCheckThreads) {
      const Ledger::Shard& sh = ledger.shard(s);
      for (const auto& [id, row] : sh.rows) {
        if (id / kShards % every != 0) continue;
        std::string image = ImageOf(id, row.payload);
        for (const oib::IndexDescriptor& d : indexes) {
          auto rec = read(d, image);
          if (!rec.ok() || *rec != image) {
            cx.fail->Note("after restart, key " + KeyOf(id) + " via " +
                          d.name + ": " +
                          (rec.ok() ? "wrong record"
                                    : rec.status().ToString()));
          }
        }
      }
      for (const std::string& image : sh.dead) {
        std::vector<std::string> fields;
        if (!oib::Schema::DecodeRecord(image, &fields).ok()) {
          cx.fail->Note("undecodable dead image");
          continue;
        }
        uint64_t id = std::strtoull(fields[0].c_str(), nullptr, 10);
        if (id / kShards % every != 0) continue;
        bool key_live = ledger.shard(s).rows.count(id) != 0;
        for (const oib::IndexDescriptor& d : indexes) {
          bool covers_payload =
              std::find(d.key_cols.begin(), d.key_cols.end(), 1u) !=
              d.key_cols.end();
          if (key_live && !covers_payload) continue;
          auto rec = read(d, image);
          if (!rec.status().IsNotFound()) {
            cx.fail->Note("after restart, dead record of key " + KeyOf(id) +
                          " via " + d.name + ": " +
                          (rec.ok() ? "found" : rec.status().ToString()));
          }
        }
      }
    }
    if (!e->Commit(txn).ok()) cx.fail->Note("check commit failed");
  });
  for (uint64_t n : checks) r->checks += n;
  MemDisk(e)->set_read_delay_us(cx.w->read_delay_us);
}

oib::Options MakeOptions(const Workload& w) {
  oib::Options o;
  o.buffer_pool_pages = w.pool_pages;
  o.enable_hash_index = w.hash;
  return o;
}

// Direct probes of the index and heap layers on a fixed sample of live
// rows (traced runs only): HashIndex::Probe, BTree::FindKeyValue and
// RecordManager::ReadRecord by RID.
void Probe(const Context& cx, oib::Engine* e, oib::TableId table,
           oib::IndexId index, const std::vector<uint32_t>& cols,
           const Ledger& ledger, uint64_t round, Round* r) {
  oib::Random rng(cx.seed * 31 + round + 7);
  oib::BTree* tree = e->catalog()->index(index);
  oib::HashIndex* hash = e->catalog()->hash_index(index);
  oib::Transaction* txn = e->Begin();
  for (size_t i = 0; i < kProbeKeys; ++i) {
    const Ledger::Shard& sh = ledger.shard(rng.Uniform(kShards));
    if (sh.live.empty()) continue;
    uint64_t id = sh.live[rng.Uniform(sh.live.size())];
    const Row& row = sh.rows.at(id);
    std::string image = ImageOf(id, row.payload);
    auto key = oib::Schema::ExtractKey(image, cols);
    if (!key.ok()) continue;
    if (hash != nullptr) {
      oib::Rid rid;
      uint64_t t0 = MonotonicNanos();
      hash->Probe(*key, &rid);
      uint64_t t1 = MonotonicNanos();
      r->probe_ns.push_back(t1 - t0);
      cx.tracer->Record("probe.hash", t0, t1, id);
    }
    uint64_t t0 = MonotonicNanos();
    auto found = tree->FindKeyValue(*key);
    uint64_t t1 = MonotonicNanos();
    r->find_ns.push_back(t1 - t0);
    cx.tracer->Record("probe.btree_find", t0, t1, id);
    if (!found.ok() || !found->found || !(found->rid == row.rid)) {
      cx.fail->Note("probe: FindKeyValue disagrees with the ledger");
    }
    t0 = MonotonicNanos();
    auto rec = e->records()->ReadRecord(txn, table, row.rid);
    t1 = MonotonicNanos();
    r->heap_read_ns.push_back(t1 - t0);
    cx.tracer->Record("probe.heap_read", t0, t1, id);
    if (!rec.ok() || *rec != image) {
      cx.fail->Note("probe: ReadRecord disagrees with the ledger");
    }
  }
  if (!e->Commit(txn).ok()) cx.fail->Note("probe commit failed");
}

Round RunRound(const Context& cx, uint64_t round) {
  const Workload& w = *cx.w;
  oib::obs::Tracer* tr = cx.tracer;
  Round r;
  oib::Options opts = MakeOptions(w);
  const uint64_t rseed = cx.seed * 1000003 + round;

  // ---- setup ----
  uint64_t t0 = MonotonicNanos();
  std::unique_ptr<oib::Env> env;
  std::unique_ptr<oib::Engine> engine;
  oib::TableId table = 0;
  oib::IndexId pk = oib::kInvalidIndexId;
  Ledger ledger(w.rows);
  {
    oib::obs::ScopedSpan span(tr, "phase.setup", round);
    env = oib::Env::InMemory(opts);
    static_cast<oib::InMemoryDisk*>(env->disk.get())
        ->set_read_delay_us(w.read_delay_us);
    auto e = oib::Engine::Open(opts, env.get());
    if (!e.ok()) {
      cx.fail->Note("Engine::Open: " + e.status().ToString());
      return r;
    }
    engine = std::move(*e);
    auto t = engine->catalog()->CreateTable("t");
    if (!t.ok()) {
      cx.fail->Note("CreateTable: " + t.status().ToString());
      return r;
    }
    table = *t;
    {
      oib::obs::ScopedSpan pop(tr, "setup.populate", w.rows);
      oib::Random rng(rseed ^ 0xabcdef);
      oib::Transaction* txn = engine->Begin();
      for (uint64_t id = 0; id < w.rows; ++id) {
        std::string payload = ledger.NewPayload(Ledger::ShardOf(id), &rng);
        auto rid = engine->records()->InsertRecord(txn, table,
                                                   ImageOf(id, payload));
        if (!rid.ok()) {
          cx.fail->Note("populate: " + rid.status().ToString());
          return r;
        }
        ledger.Put(id, *rid, std::move(payload));
        if ((id + 1) % 1024 == 0 || id + 1 == w.rows) {
          if (!engine->Commit(txn).ok()) {
            cx.fail->Note("populate commit failed");
            return r;
          }
          txn = engine->Begin();
        }
      }
      if (!engine->Commit(txn).ok()) cx.fail->Note("populate commit failed");
    }
    {
      oib::obs::ScopedSpan ob(tr, "setup.offline_build");
      oib::BuildParams p;
      p.name = "pk";
      p.table = table;
      p.unique = true;
      p.key_cols = {0};
      oib::Status s = oib::OfflineIndexBuilder(engine.get()).Build(p, &pk);
      if (!s.ok()) {
        cx.fail->Note("offline build: " + s.ToString());
        return r;
      }
    }
    oib::obs::ScopedSpan ck(tr, "setup.checkpoint");
    oib::Status s = engine->Checkpoint();
    if (!s.ok()) {
      cx.fail->Note("checkpoint: " + s.ToString());
      return r;
    }
  }
  r.setup_s = Seconds(t0, MonotonicNanos());
  const uint64_t wal0 = engine->log()->next_lsn();
  const oib::LogStats log0 = engine->log()->stats();
  const uint64_t lock_waits0 = engine->locks()->wait_count();
  const uint64_t lock_wait_ns0 = engine->locks()->wait_hist().sum();
  r.wal_after_setup = wal0;

  // ---- build ----
  std::vector<oib::IndexId> built;
  {
    oib::obs::ScopedSpan span(tr, "phase.build", round);
    uint64_t sfa0 = engine->records()->stats().side_file_appends.load();
    TxnRunner runner(engine.get(), table, &ledger, w.mix, ReadPath{pk, {0}},
                     tr, 1);
    BeginEngineSpans(cx);
    OpenLoop gen(&runner, kBuildThreads, w.build_rate, rseed);
    gen.Start();
    usleep(static_cast<useconds_t>(kWarmupNs / 1000));
    std::vector<oib::BuildParams> params;
    for (const IndexSpec& is : w.build) {
      oib::BuildParams p;
      p.name = is.name;
      p.table = table;
      p.unique = is.unique;
      p.key_cols = is.cols;
      params.push_back(p);
    }
    uint64_t b0 = MonotonicNanos();
    gen.set_window_begin(b0);
    oib::Status s;
    if (w.algo == oib::BuildAlgo::kNsf) {
      oib::obs::ScopedSpan bs(tr, "build.nsf");
      built.resize(1);
      s = oib::NsfIndexBuilder(engine.get())
              .Build(params[0], &built[0], &r.bstats);
    } else if (params.size() == 1) {
      oib::obs::ScopedSpan bs(tr, "build.sf");
      built.resize(1);
      s = oib::SfIndexBuilder(engine.get())
              .Build(params[0], &built[0], &r.bstats);
    } else {
      oib::obs::ScopedSpan bs(tr, "build.sf_many");
      s = oib::SfIndexBuilder(engine.get())
              .BuildMany(params, &built, &r.bstats);
    }
    uint64_t b1 = MonotonicNanos();
    r.build = gen.Stop();
    EndEngineSpans(cx);
    r.build_s = Seconds(b0, b1);
    if (!s.ok()) {
      cx.fail->Note("index build: " + s.ToString());
      return r;
    }
    r.side_file_appends =
        engine->records()->stats().side_file_appends.load() - sfa0;
  }
  r.wal_after_build = engine->log()->next_lsn();
  {
    oib::obs::ScopedSpan span(tr, "check.after_build", round);
    VerifyIndexes(cx, engine.get(), table, "after build", &r);
  }

  // ---- serve ----
  {
    oib::obs::ScopedSpan span(tr, "phase.serve", round);
    oib::obs::MetricsRegistry& reg = oib::obs::MetricsRegistry::Default();
    oib::obs::Counter* hh = reg.GetCounter("hash.hits");
    oib::obs::Counter* hm = reg.GetCounter("hash.misses");
    oib::obs::Counter* hf = reg.GetCounter("hash.fallbacks");
    uint64_t hh0 = hh->value(), hm0 = hm->value(), hf0 = hf->value();
    uint64_t ph0 = engine->pool()->hits(), pm0 = engine->pool()->misses();
    uint64_t pe0 = engine->pool()->evictions();
    uint64_t dr0 = engine->disk()->reads();
    TxnRunner runner(engine.get(), table, &ledger, w.mix,
                     ReadPath{built[0], w.build[0].cols}, tr,
                     kServeSpanEvery);
    r.serve = RunClosedLoop(&runner, kServeClients, w.serve_txns,
                            rseed + 17, &r.serve_window_s);
    r.hash_hits = hh->value() - hh0;
    r.hash_misses = hm->value() - hm0;
    r.hash_fallbacks = hf->value() - hf0;
    r.pool_hits = engine->pool()->hits() - ph0;
    r.pool_misses = engine->pool()->misses() - pm0;
    r.pool_evictions = engine->pool()->evictions() - pe0;
    r.disk_reads = engine->disk()->reads() - dr0;
  }
  r.wal_after_serve = engine->log()->next_lsn();
  if (tr != nullptr) {
    oib::obs::ScopedSpan span(tr, "probe", round);
    Probe(cx, engine.get(), table, built[0], w.build[0].cols, ledger, round,
          &r);
  }

  // ---- restart ----
  {
    oib::obs::ScopedSpan span(tr, "phase.restart", round);
    r.lock_waits = engine->locks()->wait_count() - lock_waits0;
    r.lock_wait_ms =
        static_cast<double>(engine->locks()->wait_hist().sum() -
                            lock_wait_ns0) /
        1e6;
    r.wal_mb = static_cast<double>(engine->log()->next_lsn() - wal0) / kMiB;
    oib::LogStats log1 = engine->log()->stats();
    r.wal.flushes = log1.flushes - log0.flushes;
    for (size_t i = 0; i < r.wal.bytes_by_rm.size(); ++i) {
      r.wal.bytes_by_rm[i] = log1.bytes_by_rm[i] - log0.bytes_by_rm[i];
    }
    if (!engine->SimulateCrash().ok()) cx.fail->Note("SimulateCrash failed");
    engine.reset();
    BeginEngineSpans(cx);
    uint64_t s0 = MonotonicNanos();
    {
      oib::obs::ScopedSpan rs(tr, "engine.restart");
      auto e = oib::Engine::Restart(opts, env.get(), &r.rstats);
      if (!e.ok()) {
        cx.fail->Note("Engine::Restart: " + e.status().ToString());
        return r;
      }
      engine = std::move(*e);
    }
    r.restart_s = Seconds(s0, MonotonicNanos());
    EndEngineSpans(cx);
  }
  {
    oib::obs::ScopedSpan span(tr, "check.after_restart", round);
    VerifyIndexes(cx, engine.get(), table, "after restart", &r);
    CheckLedger(cx, engine.get(), table, ledger, round, &r);
  }
  if (tr != nullptr) {
    for (oib::IndexId id : built) {
      oib::TreeVerifier tv(engine->catalog()->index(id), engine->pool());
      auto rep = tv.Check();
      if (rep.ok()) r.index_pages += rep->leaf_pages + rep->internal_pages;
    }
    oib::TreeVerifier tv(engine->catalog()->index(built[0]), engine->pool());
    auto cl = tv.Clustering();
    if (cl.ok()) r.entries_per_leaf = cl->entries_per_leaf;
  }
  r.db_mb = static_cast<double>(engine->disk()->PageCount()) *
            static_cast<double>(opts.page_size) / kMiB;
  return r;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string Json(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    // A failed round can leave a rate undefined; keep the line valid JSON.
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

// Share of CPU time the host took from this machine's vCPUs ("steal" in
// /proc/stat) between two readings; 0 where the file is unavailable.
struct CpuTimes {
  uint64_t steal = 0, total = 0;
};
CpuTimes ReadCpuTimes() {
  CpuTimes t;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  uint64_t v[8] = {};
  if (std::fscanf(f, "cpu %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64
                  " %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64,
                  &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                  &v[7]) == 8) {
    for (uint64_t x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

double PeakRssMb() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// Medians over rounds of each round's figure.
std::vector<Metric> EndToEnd(const std::vector<Round>& rounds) {
  std::map<std::string, std::vector<double>> per_round;
  for (const Round& r : rounds) {
    auto add = [&](const char* name, double v) {
      per_round[name].push_back(v);
    };
    add("setup_s", r.setup_s);
    add("build_s", r.build_s);
    add("build_write_p50_us", PctUs(r.build.write_lat, 50));
    add("serve_write_txn_per_s",
        static_cast<double>(r.serve.write_commits) / r.serve_window_s);
    add("serve_write_p50_us", PctUs(r.serve.write_lat, 50));
    add("serve_read_per_s",
        static_cast<double>(r.serve.reads) / r.serve_window_s);
    add("serve_read_p50_us", PctUs(r.serve.read_lat, 50));
    add("restart_s", r.restart_s);
    add("wal_mb", r.wal_mb);
    add("db_mb", r.db_mb);
  }
  auto med = [&](const char* name) { return Median(per_round[name]); };
  return {
      {"setup_s", "s", med("setup_s")},
      {"build_s", "s", med("build_s")},
      {"build_write_p50_us", "us", med("build_write_p50_us")},
      {"serve_write_txn_per_s", "1/s", med("serve_write_txn_per_s")},
      {"serve_write_p50_us", "us", med("serve_write_p50_us")},
      {"serve_read_per_s", "1/s", med("serve_read_per_s")},
      {"serve_read_p50_us", "us", med("serve_read_p50_us")},
      {"restart_s", "s", med("restart_s")},
      {"wal_mb", "MiB", med("wal_mb")},
      {"db_mb", "MiB", med("db_mb")},
      {"peak_rss_mb", "MiB", PeakRssMb()},
  };
}

std::vector<Metric> PerLayer(const std::vector<Round>& rounds,
                             double steal_pct) {
  PhaseStats b, s, all;
  std::vector<uint64_t> probe, find, heap;
  std::map<std::string, std::vector<double>> per_round;
  auto add = [&](const char* name, double v) { per_round[name].push_back(v); };
  for (const Round& r : rounds) {
    b.Merge(r.build);
    s.Merge(r.serve);
    probe.insert(probe.end(), r.probe_ns.begin(), r.probe_ns.end());
    find.insert(find.end(), r.find_ns.begin(), r.find_ns.end());
    heap.insert(heap.end(), r.heap_read_ns.begin(), r.heap_read_ns.end());
    const oib::BuildStats& bs = r.bstats;
    bool nsf = bs.ib.inserted > 0 || bs.quiesce_ms > 0;
    add("core.quiesce_ms", bs.quiesce_ms);
    add("core.side_file_appends", static_cast<double>(r.side_file_appends));
    add("txn.lock_waits", static_cast<double>(r.lock_waits));
    add("txn.lock_wait_ms", r.lock_wait_ms);
    using oib::RmId;
    auto rm_mb = [&](RmId id) {
      return static_cast<double>(r.wal.bytes_by_rm[static_cast<size_t>(id)]) /
             kMiB;
    };
    add("wal.heap_mb", rm_mb(RmId::kHeap));
    add("wal.btree_mb", rm_mb(RmId::kBtree));
    add("wal.sidefile_mb", rm_mb(RmId::kSideFile));
    add("wal.flushes", static_cast<double>(r.wal.flushes));
    add("wal.recovery_analysis_ms",
        static_cast<double>(r.rstats.analysis_ns) / 1e6);
    add("wal.recovery_redo_ms", static_cast<double>(r.rstats.redo_ns) / 1e6);
    add("wal.recovery_undo_ms", static_cast<double>(r.rstats.undo_ns) / 1e6);
    add("wal.records_redone", static_cast<double>(r.rstats.records_redone));
    add("storage.pool_hits", static_cast<double>(r.pool_hits));
    add("storage.pool_misses", static_cast<double>(r.pool_misses));
    add("storage.pool_evictions", static_cast<double>(r.pool_evictions));
    add("storage.disk_reads_per_read",
        r.serve.reads > 0 ? static_cast<double>(r.disk_reads) /
                                static_cast<double>(r.serve.reads)
                          : 0.0);
    add("hashidx.hits", static_cast<double>(r.hash_hits));
    add("hashidx.misses", static_cast<double>(r.hash_misses));
    add("hashidx.fallbacks", static_cast<double>(r.hash_fallbacks));
    add("btree.ib_insert_ms", nsf ? bs.load_ms : 0.0);
    add("btree.load_ms", nsf ? 0.0 : bs.load_ms);
    add("btree.entries_per_leaf", r.entries_per_leaf);
    add("btree.index_pages", static_cast<double>(r.index_pages));
    add("heap.pages_scanned", static_cast<double>(bs.data_pages_scanned));
    add("sort.scan_ms", bs.scan_ms);
    add("sort.merge_ms", bs.merge_ms);
    add("sort.runs", static_cast<double>(bs.sort_runs));
    add("sort.key_bytes_ratio",
        bs.key_bytes_moved > 0 ? static_cast<double>(bs.key_bytes_stored) /
                                     static_cast<double>(bs.key_bytes_moved)
                               : 0.0);
    add("sidefile.apply_ms", bs.apply_ms);
    add("sidefile.applied", static_cast<double>(bs.side_file_applied));
    add("build_read_p50_us", PctUs(r.build.read_lat, 50));
  }
  all.Merge(b);
  all.Merge(s);
  auto med = [&](const char* name) { return Median(per_round[name]); };
  std::vector<Metric> m = {
      {"core.insert_us", "us", PctUs(b.insert_ns, 50)},
      {"core.update_us", "us", PctUs(b.update_ns, 50)},
      {"core.delete_us", "us", PctUs(b.delete_ns, 50)},
      {"core.read_by_key_us", "us", PctUs(s.read_ns, 50)},
      {"core.quiesce_ms", "ms", med("core.quiesce_ms")},
      {"core.side_file_appends", "count", med("core.side_file_appends")},
      {"txn.commit_us", "us", PctUs(all.commit_ns, 50)},
      {"txn.commit_p99_us", "us", PctUs(all.commit_ns, 99)},
      {"txn.rollback_us", "us", PctUs(all.rollback_ns, 50)},
      {"txn.lock_waits", "count", med("txn.lock_waits")},
      {"txn.lock_wait_ms", "ms", med("txn.lock_wait_ms")},
      {"wal.heap_mb", "MiB", med("wal.heap_mb")},
      {"wal.btree_mb", "MiB", med("wal.btree_mb")},
      {"wal.sidefile_mb", "MiB", med("wal.sidefile_mb")},
      {"wal.flushes", "count", med("wal.flushes")},
      {"wal.recovery_analysis_ms", "ms", med("wal.recovery_analysis_ms")},
      {"wal.recovery_redo_ms", "ms", med("wal.recovery_redo_ms")},
      {"wal.recovery_undo_ms", "ms", med("wal.recovery_undo_ms")},
      {"wal.records_redone", "count", med("wal.records_redone")},
      {"storage.pool_hits", "count", med("storage.pool_hits")},
      {"storage.pool_misses", "count", med("storage.pool_misses")},
      {"storage.pool_evictions", "count", med("storage.pool_evictions")},
      {"storage.disk_reads_per_read", "ratio",
       med("storage.disk_reads_per_read")},
      {"hashidx.probe_us", "us", PctUs(probe, 50)},
      {"hashidx.hits", "count", med("hashidx.hits")},
      {"hashidx.misses", "count", med("hashidx.misses")},
      {"hashidx.fallbacks", "count", med("hashidx.fallbacks")},
      {"btree.find_us", "us", PctUs(find, 50)},
      {"btree.ib_insert_ms", "ms", med("btree.ib_insert_ms")},
      {"btree.load_ms", "ms", med("btree.load_ms")},
      {"btree.entries_per_leaf", "count", med("btree.entries_per_leaf")},
      {"btree.index_pages", "count", med("btree.index_pages")},
      {"heap.read_us", "us", PctUs(heap, 50)},
      {"heap.pages_scanned", "count", med("heap.pages_scanned")},
      {"sort.scan_ms", "ms", med("sort.scan_ms")},
      {"sort.merge_ms", "ms", med("sort.merge_ms")},
      {"sort.runs", "count", med("sort.runs")},
      {"sort.key_bytes_ratio", "ratio", med("sort.key_bytes_ratio")},
      {"sidefile.apply_ms", "ms", med("sidefile.apply_ms")},
      {"sidefile.applied", "count", med("sidefile.applied")},
      // Percentile over the samples of all rounds, so that enough samples
      // lie beyond it.  A per-layer figure: on a shared host it follows
      // the host's stalls more than the program (README).
      {"build_write_p99_us", "us", PctUs(b.write_lat, 99)},
      {"bench.build_write_samples", "count",
       static_cast<double>(b.write_lat.size())},
      // Median over rounds, like the end-to-end p50s; per-layer because
      // most of it is the generator's own wake-up (README).
      {"build_read_p50_us", "us", med("build_read_p50_us")},
      {"bench.generator_late_us", "us", PctUs(b.late, 50)},
      {"bench.generator_late_p99_us", "us", PctUs(b.late, 99)},
      {"bench.rounds", "count", static_cast<double>(rounds.size())},
      {"bench.host_steal_pct", "%", steal_pct},
  };
  return m;
}

int Usage() {
  std::fprintf(stderr,
               "usage: oib_perfbench --workload <name> --seed <n> "
               "--seconds <s> [--trace-out <file>]\nworkloads:");
  for (const Workload& w : Workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, trace_out;
  uint64_t seed = 1;
  double seconds = 10;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string a = argv[i];
    if (a == "--workload") {
      workload = argv[i + 1];
    } else if (a == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(argv[i + 1], nullptr);
    } else if (a == "--trace-out") {
      trace_out = argv[i + 1];
    } else {
      return Usage();
    }
  }
  const Workload* w = nullptr;
  for (const Workload& cand : Workloads()) {
    if (workload == cand.name) w = &cand;
  }
  if (w == nullptr || argc % 2 == 0) return Usage();

  oib::obs::SetCurrentThreadName("bench.main");
  std::unique_ptr<oib::obs::Tracer> tracer;
  if (!trace_out.empty()) {
    tracer = std::make_unique<oib::obs::Tracer>(1u << 19);
  }
  std::printf(
      "machine {\"nproc\": %ld, \"build_type\": \"%s\", \"disk\": "
      "\"in-memory\", \"read_delay_us\": %u}\n",
      sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE, w->read_delay_us);
  std::fflush(stdout);

  Failure fail;
  std::vector<oib::obs::Span> engine_spans;
  Context cx{w, seed, tracer.get(), &fail, &engine_spans};
  std::vector<Round> rounds;
  const CpuTimes cpu0 = ReadCpuTimes();
  uint64_t t0 = MonotonicNanos();
  while (!fail.failed() &&
         (rounds.size() < kMinRounds ||
          Seconds(t0, MonotonicNanos()) < seconds)) {
    rounds.push_back(RunRound(cx, rounds.size()));
    const Round& r = rounds.back();
    std::fprintf(stderr,
                 "round %zu: setup %.3fs build %.3fs (%" PRIu64
                 " txns) serve %.3fs (%" PRIu64 " txns) restart %.3fs; "
                 "%" PRIu64 " correctness checks; "
                 "wal offset after setup %.1f MiB, after build %.1f MiB, "
                 "after serve %.1f MiB\n",
                 rounds.size() - 1, r.setup_s, r.build_s, r.build.attempted,
                 r.serve_window_s, r.serve.attempted, r.restart_s, r.checks,
                 static_cast<double>(r.wal_after_setup) / kMiB,
                 static_cast<double>(r.wal_after_build) / kMiB,
                 static_cast<double>(r.wal_after_serve) / kMiB);
  }

  uint64_t attempted = 0, failed = 0, mismatches = 0;
  for (const Round& r : rounds) {
    attempted += r.build.attempted + r.serve.attempted;
    failed += r.build.failed + r.serve.failed;
    mismatches += r.build.mismatches + r.serve.mismatches;
    for (const PhaseStats* p : {&r.build, &r.serve}) {
      if (!p->first_error.empty()) {
        std::fprintf(stderr, "first error: %s\n", p->first_error.c_str());
      }
    }
  }
  if (mismatches > 0) fail.Note("reads disagreed with the ledger");
  bool correct = !fail.failed();
  if (!correct) std::fprintf(stderr, "CHECK FAILED: %s\n", fail.msg().c_str());

  const CpuTimes cpu1 = ReadCpuTimes();
  const double steal_pct =
      cpu1.total > cpu0.total
          ? 100.0 * static_cast<double>(cpu1.steal - cpu0.steal) /
                static_cast<double>(cpu1.total - cpu0.total)
          : 0.0;
  std::fprintf(stderr, "host steal during the run: %.2f%%\n", steal_pct);
  std::vector<Metric> e2e = EndToEnd(rounds);
  if (tracer != nullptr) {
    // Traced figures, for the tracing overhead; the untraced run is the
    // measurement.
    std::printf("traced_end_to_end %s\n",
                Json(correct, attempted, failed, e2e).c_str());
    std::vector<oib::obs::Span> spans = tracer->Snapshot();
    spans.insert(spans.end(), engine_spans.begin(), engine_spans.end());
    oib::Status s = oib::obs::WriteStringToFile(
        trace_out, oib::obs::TraceToChromeJson(spans, tracer->dropped()));
    if (!s.ok()) {
      std::fprintf(stderr, "writing %s: %s\n", trace_out.c_str(),
                   s.ToString().c_str());
      correct = false;
    }
    std::printf("%s\n",
                Json(correct, attempted, failed, PerLayer(rounds, steal_pct))
                    .c_str());
  } else {
    std::printf("%s\n", Json(correct, attempted, failed, e2e).c_str());
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
