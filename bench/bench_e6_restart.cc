// E6 — Restartable build: work lost at a crash vs checkpoint interval
// (paper sections 2.2.3, 3.2.4, 5).
//
// Claim: with the restartable sort and the builders' progress checkpoints
// "not all the so-far-accomplished work is lost" at a failure; lost work
// is bounded by the checkpoint interval.  We crash the builder at a fixed
// point and measure how much scanning/inserting the resumed build redoes,
// sweeping the checkpoint interval (0 = checkpoints disabled, i.e. the
// restart-from-scratch strategy the paper deems "probably unacceptable
// for large tables").

#include <cstring>
#include <filesystem>

#include "common/failpoint.h"

#include "bench/bench_util.h"

namespace oib {
namespace bench {

// --disk=file runs the whole experiment on real files: the crash tears
// down the Env, restart re-attaches from disk, and the resume replays
// through the FileDisk durability path (double-write repair, CRC
// verification) instead of the in-memory page map.
bool g_disk_file = false;

namespace {

const uint64_t kRows = BenchRows(40000);

World MakeBenchWorld(uint64_t rows, const Options& options) {
  if (!g_disk_file) return MakeWorld(rows, options);
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "oib_bench_e6_file";
  std::error_code ec;
  fs::remove_all(dir, ec);
  World w;
  w.options = options;
  auto env = Env::OnFiles(dir.string(), options);
  if (!env.ok()) std::abort();
  w.env = std::move(*env);
  auto engine = Engine::Open(options, w.env.get());
  if (!engine.ok()) std::abort();
  w.engine = std::move(*engine);
  auto table = w.engine->catalog()->CreateTable("t");
  if (!table.ok()) std::abort();
  w.table = *table;
  WorkloadOptions wo;
  wo.seed = 42;
  auto rids = Workload::Populate(w.engine.get(), w.table, rows, wo);
  if (!rids.ok()) std::abort();
  w.rids = std::move(*rids);
  return w;
}

void RunOne(const char* algo, size_t ckpt_interval, const char* phase,
            const char* failpoint, int countdown, uint64_t crash_keys,
            BenchReport* report) {
  Options options = DefaultBenchOptions();
  options.sort_checkpoint_every_keys = ckpt_interval;
  options.ib_checkpoint_every_keys = ckpt_interval;
  World w = MakeBenchWorld(kRows, options);

  FailPointRegistry::Instance().Reset();
  FailPointRegistry::Instance().Arm(failpoint, countdown);
  BuildParams params = KeyIndexParams(w.table, "idx");
  IndexId index;
  Status s;
  double t0 = NowMs();
  if (std::string(algo) == "nsf") {
    NsfIndexBuilder builder(w.engine.get());
    s = builder.Build(params, &index);
  } else {
    SfIndexBuilder builder(w.engine.get());
    s = builder.Build(params, &index);
  }
  double first_ms = NowMs() - t0;
  if (!s.IsInjected()) {
    std::fprintf(stderr, "expected injection, got %s\n",
                 s.ToString().c_str());
    std::abort();
  }
  FailPointRegistry::Instance().Reset();

  // Crash + restart.
  if (!w.engine->SimulateCrash().ok()) std::abort();
  w.engine.reset();
  if (g_disk_file) {
    // Drop the Env too: restart must re-attach from the files.
    w.env.reset();
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() / "oib_bench_e6_file";
    auto env = Env::OnFiles(dir.string(), options);
    if (!env.ok()) std::abort();
    w.env = std::move(*env);
  }
  RecoveryStats rstats;
  double restart_t0 = NowMs();
  auto engine = Engine::Restart(options, w.env.get(), &rstats);
  double restart_ms = NowMs() - restart_t0;
  if (!engine.ok()) std::abort();
  w.engine = std::move(*engine);

  BuildStats stats;
  t0 = NowMs();
  if (std::string(algo) == "nsf") {
    NsfIndexBuilder builder(w.engine.get());
    s = builder.Resume(w.table, &index, &stats);
  } else {
    SfIndexBuilder builder(w.engine.get());
    s = builder.Resume(w.table, &stats);
  }
  double resume_ms = NowMs() - t0;
  if (!s.ok()) {
    std::fprintf(stderr, "resume failed: %s\n", s.ToString().c_str());
    std::abort();
  }
  auto descs = w.engine->catalog()->IndexesOf(w.table);
  MustBeConsistent(w.engine.get(), w.table, descs[0].id);

  uint64_t redone = std::string(phase) == std::string("scan")
                        ? stats.keys_extracted
                        : (stats.ib.inserted + stats.keys_loaded);
  // Work the resume performed = remaining work at the crash + the wasted
  // re-done tail since the last checkpoint.
  uint64_t remaining = kRows - crash_keys;
  int64_t wasted = static_cast<int64_t>(redone) -
                   static_cast<int64_t>(remaining);
  std::printf("%-5s %-7s %10zu %11.1f %11.1f %12llu %11lld %9.1f%%\n",
              algo, phase, ckpt_interval, first_ms, resume_ms,
              (unsigned long long)redone, (long long)wasted,
              100.0 * wasted / kRows);
  report->AddRow(std::string(algo) + "/" + phase + "/ckpt=" +
                     std::to_string(ckpt_interval),
                 {{"ckpt_interval", static_cast<double>(ckpt_interval)},
                  {"first_ms", first_ms},
                  {"restart_ms", restart_ms},
                  {"records_redone",
                   static_cast<double>(rstats.records_redone)},
                  {"resume_ms", resume_ms},
                  {"resume_keys", static_cast<double>(redone)},
                  {"wasted_keys", static_cast<double>(wasted)},
                  {"waste_pct", 100.0 * wasted / kRows}});
}

void Run() {
  PrintHeader(
      "E6: crash mid-build -> work redone after restart",
      "checkpointed builds redo only the post-checkpoint tail; interval 0 "
      "(no checkpoints) redoes everything — 'probably unacceptable for "
      "large tables' (section 2.2.3)");
  std::printf("%-5s %-7s %10s %11s %11s %12s %11s %10s\n", "algo",
              "phase", "ckpt_keys", "1st_ms", "resume_ms", "resume_keys",
              "wasted", "waste_pct");
  // Crash mid-scan: the scan visits ~rows/75 pages; fail at ~60%.
  BenchReport report("e6");
  int scan_fp = static_cast<int>(kRows / 75 * 0.6);
  uint64_t scan_crash_keys = static_cast<uint64_t>(scan_fp) * 75;
  for (size_t interval : {0ul, 2000ul, 10000ul}) {
    RunOne("nsf", interval, "scan", "nsf.scan", scan_fp, scan_crash_keys,
           &report);
    RunOne("sf", interval, "scan", "sf.scan", scan_fp, scan_crash_keys,
           &report);
  }
  // Crash mid-insert/load at ~60% of keys.
  for (size_t interval : {2000ul, 10000ul}) {
    RunOne("nsf", interval, "insert", "nsf.insert_batch",
           static_cast<int>(kRows * 0.6 / 64),
           static_cast<uint64_t>(kRows * 0.6), &report);
    RunOne("sf", interval, "load", "sf.load",
           static_cast<int>(kRows * 0.6),
           static_cast<uint64_t>(kRows * 0.6), &report);
  }
  report.Write();
}

}  // namespace
}  // namespace bench
}  // namespace oib

int main(int argc, char** argv) {
  oib::bench::InitBenchObs(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--disk=file") == 0) {
      oib::bench::g_disk_file = true;
    } else if (std::strcmp(argv[i], "--disk=memory") == 0) {
      oib::bench::g_disk_file = false;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--disk=file|memory]\n", argv[0]);
      return 2;
    }
  }
  oib::bench::Run();
  return 0;
}
