// E11 — Restart recovery: wall-clock vs log length (paper section 5
// motivation — a build interrupted by a crash must come back quickly
// enough that "not all the so-far-accomplished work is lost").
//
// Builds a crashed durable state once per log size on real files (no
// checkpoint, so restart replays the whole history), then restarts fresh
// copies of that state kReps times.  Claim checked: restart recovers the
// exact committed row count, and its cost grows with the un-checkpointed
// log tail.  Analysis and redo share one forward pass, so redo time is
// part of ana_ms.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace oib {
namespace bench {
namespace {

const uint64_t kRowsSmall = BenchRows(10000);
const uint64_t kRowsMedium = BenchRows(20000);
const uint64_t kRowsLarge = BenchRows(40000);

std::string BenchDir(const std::string& leaf) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / leaf;
  std::error_code ec;
  fs::remove_all(dir, ec);
  return dir.string();
}

// Populates `rows` records plus `rows / 4` committed single-row update
// transactions on a file-backed engine, then crashes it without a
// checkpoint: the WAL carries the entire history and restart must redo
// all of it.  Returns the directory holding the crashed state.
std::string MakeCrashedState(uint64_t rows, const Options& options,
                             uint64_t* wal_bytes) {
  std::string dir = BenchDir("oib_bench_e11_seed");
  auto env = Env::OnFiles(dir, options);
  if (!env.ok()) std::abort();
  auto engine = Engine::Open(options, env->get());
  if (!engine.ok()) std::abort();
  auto table = (*engine)->catalog()->CreateTable("t");
  if (!table.ok()) std::abort();
  WorkloadOptions wo;
  wo.seed = 42;
  auto rids = Workload::Populate(engine->get(), *table, rows, wo);
  if (!rids.ok()) std::abort();
  // A tail of small committed transactions: distinct txns exercise the
  // analysis pass (txn table) as well as redo.
  for (uint64_t i = 0; i < rows / 4; ++i) {
    Transaction* txn = (*engine)->Begin();
    auto st = (*engine)
                  ->records()
                  ->InsertRecord(txn, *table,
                                 Schema::EncodeRecord(
                                     {"tail" + std::to_string(i), "p"}))
                  .status();
    if (!st.ok() || !(*engine)->Commit(txn).ok()) std::abort();
  }
  if (!(*engine)->log()->FlushAll().ok()) std::abort();
  if (!(*engine)->SimulateCrash().ok()) std::abort();
  engine->reset();
  env->reset();
  std::error_code ec;
  auto sz = std::filesystem::file_size(std::filesystem::path(dir) / "wal",
                                       ec);
  *wal_bytes = ec ? 0 : static_cast<uint64_t>(sz);
  return dir;
}

constexpr int kReps = 3;

// Restarts a fresh copy of `seed_dir` and checks the recovered row count;
// returns the restart wall-clock in ms.
double RestartOnce(const std::string& seed_dir, uint64_t rows,
                   RecoveryStats* stats) {
  namespace fs = std::filesystem;
  Options options = DefaultBenchOptions();
  std::string dir = BenchDir("oib_bench_e11_run");
  std::error_code ec;
  fs::copy(seed_dir, dir, fs::copy_options::recursive, ec);
  if (ec) std::abort();

  auto env = Env::OnFiles(dir, options);
  if (!env.ok()) std::abort();
  double t0 = NowMs();
  auto engine = Engine::Restart(options, env->get(), stats);
  double restart_ms = NowMs() - t0;
  if (!engine.ok()) {
    std::fprintf(stderr, "restart failed: %s\n",
                 engine.status().ToString().c_str());
    std::abort();
  }
  auto table = (*engine)->catalog()->TableByName("t");
  if (!table.ok()) std::abort();
  uint64_t n = 0;
  if (!(*engine)
           ->catalog()
           ->table(*table)
           ->ForEach([&](const Rid&, std::string_view) { ++n; })
           .ok()) {
    std::abort();
  }
  uint64_t expect = rows + rows / 4;
  if (n != expect) {
    std::fprintf(stderr, "row count after recovery: %llu, expected %llu\n",
                 (unsigned long long)n, (unsigned long long)expect);
    std::abort();
  }
  engine->reset();
  env->reset();
  fs::remove_all(dir, ec);
  return restart_ms;
}

void Run() {
  PrintHeader(
      "E11: restart recovery time vs log length",
      "restart recovers the exact committed state; its cost scales with "
      "the un-checkpointed log tail");
  std::printf("%-6s %8s %8s %10s %10s %10s %12s %10s\n", "size", "rows",
              "wal_mib", "restart_ms", "min_ms", "max_ms", "redone", "ana_ms");
  BenchReport report("e11");
  namespace fs = std::filesystem;
  Options options = DefaultBenchOptions();
  for (auto [size, rows] :
       {std::pair<const char*, uint64_t>{"small", kRowsSmall},
        std::pair<const char*, uint64_t>{"medium", kRowsMedium},
        std::pair<const char*, uint64_t>{"large", kRowsLarge}}) {
    uint64_t wal_bytes = 0;
    std::string seed_dir = MakeCrashedState(rows, options, &wal_bytes);
    std::vector<double> ms;
    RecoveryStats stats;
    for (int rep = 0; rep < kReps; ++rep) {
      ms.push_back(RestartOnce(seed_dir, rows, &stats));
    }
    std::sort(ms.begin(), ms.end());
    double median = ms[ms.size() / 2];
    double wal_mib = wal_bytes / (1024.0 * 1024.0);
    std::printf("%-6s %8llu %8.1f %10.1f %10.1f %10.1f %12llu %10.1f\n", size,
                (unsigned long long)rows, wal_mib, median, ms.front(),
                ms.back(), (unsigned long long)stats.records_redone,
                stats.analysis_ns / 1e6);
    report.AddRow(size,
                  {{"rows", static_cast<double>(rows)},
                   {"wal_mib", wal_mib},
                   {"restart_ms", median},
                   {"restart_min_ms", ms.front()},
                   {"restart_max_ms", ms.back()},
                   {"records_redone",
                    static_cast<double>(stats.records_redone)},
                   {"analysis_ms", stats.analysis_ns / 1e6},
                   {"undo_ms", stats.undo_ns / 1e6}});
    std::error_code ec;
    fs::remove_all(seed_dir, ec);
  }
  report.Write();
}

}  // namespace
}  // namespace bench
}  // namespace oib

int main(int argc, char** argv) {
  oib::bench::InitBenchObs(&argc, argv);
  oib::bench::Run();
  return 0;
}
