// Deterministic fault injection for crash/restart testing.
//
// A fail point is a named site in library code.  Each site caches a
// pointer to its registry entry in a function-local static, so a disarmed
// site costs exactly one relaxed atomic load of its own flag — arming one
// point does not slow any other point down.
//
// A point is armed with a FailPointPolicy:
//
//   action       what happens when the point fires:
//                  kReturnError  the site returns Status::Injected
//                  kShortWrite   an I/O site truncates the write to
//                                `arg` bytes (then reports injected)
//                  kTornWrite    an I/O site writes the first `arg`
//                                bytes, corrupts the rest on disk
//                  kDelay        the site sleeps `arg` microseconds and
//                                continues (armed stays on)
//                  kAbort        the process SIGKILLs itself — the crash
//                                harness's kill switch
//                  kPark         the site blocks until the point is
//                                disarmed: a test rendezvous that holds a
//                                thread at a named site (WaitParked)
//   countdown    number of evaluations to skip before the point can fire
//   probability  chance each subsequent evaluation fires (seeded
//                per-point RNG, so a given seed is byte-reproducible)
//   max_fires    disarm after this many fires (-1 = never disarm)
//   arg          action-specific parameter (bytes kept / delay usec)
//
// Policies come from tests (ArmPolicy), from Options::failpoints, or from
// the OIB_FAILPOINTS environment variable; see ConfigureFromSpec for the
// spec grammar.  The legacy API — Arm(name, countdown) arming a
// fire-once kReturnError point, Check(name) for runtime-chosen names —
// is preserved on top of the same machinery.

#ifndef OIB_COMMON_FAILPOINT_H_
#define OIB_COMMON_FAILPOINT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/sync.h"

namespace oib {

namespace obs {
class MetricsRegistry;
}  // namespace obs

enum class FailPointAction : uint8_t {
  kOff = 0,
  kReturnError,
  kShortWrite,
  kTornWrite,
  kDelay,
  kAbort,
  kPark,
};

const char* FailPointActionName(FailPointAction a);

// SIGKILLs the process the way the kAbort action does.  I/O sites call
// this after honouring a kTornWrite hit: a torn write the process
// survives cannot exist (if write() returned, the bytes are down), so
// tearing implies dying.
[[noreturn]] void FailPointHardAbort(const std::string& site);

struct FailPointPolicy {
  FailPointAction action = FailPointAction::kReturnError;
  int countdown = 0;
  double probability = 1.0;
  int max_fires = 1;  // -1 = unlimited
  uint32_t arg = 0;
};

// What an armed site should do right now.  kOff means the evaluation was
// a miss (countdown still running, probability said no, already disarmed).
struct FailPointHit {
  FailPointAction action = FailPointAction::kOff;
  uint32_t arg = 0;
};

// One named injection site.  Instances are created by the registry and
// live for the process lifetime (sites cache raw pointers in statics).
class FailPoint {
 public:
  const std::string& name() const { return name_; }

  // The only cost a disarmed site pays.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  // Slow path, call only when armed().  Runs countdown/probability/
  // max_fires bookkeeping.  kDelay is served here (sleeps, returns the
  // hit so callers may count it); kAbort never returns.
  FailPointHit Evaluate();

  // Generic-site helper: Evaluate() and fold any hit into
  // Status::Injected(name).  Short/torn hits also map to Injected —
  // only I/O sites that understand partial writes use Evaluate directly.
  Status Act();

  // Fires since this point was last Reset.
  int64_t fired() const { return fired_.load(std::memory_order_relaxed); }

 private:
  friend class FailPointRegistry;
  explicit FailPoint(std::string name) : name_(std::move(name)) {}

  void SetPolicy(const FailPointPolicy& policy, uint64_t seed);
  void Disarm();
  void ResetCounts();
  // kPark: blocks the calling thread until the next Disarm().
  void Park();
  bool WaitParked(std::chrono::milliseconds timeout);

  const std::string name_;
  std::atomic<bool> armed_{false};
  std::atomic<int64_t> fired_{0};
  sync::Mutex mu_{sync::LockRank::kFailPoint, "failpoint.point_mu"};
  FailPointPolicy policy_ OIB_GUARDED_BY(mu_);
  int fires_left_ OIB_GUARDED_BY(mu_) = 0;  // -1 = unlimited
  uint64_t rng_ OIB_GUARDED_BY(mu_) = 0;
  // kPark rendezvous: threads parked here, released when Disarm() bumps
  // the generation.
  int parked_ OIB_GUARDED_BY(mu_) = 0;
  uint64_t release_gen_ OIB_GUARDED_BY(mu_) = 0;
  sync::CondVar park_cv_;
};

class FailPointRegistry {
 public:
  // Process-wide singleton.
  static FailPointRegistry& Instance();

  // Returns the (never-deallocated) point for `name`, creating it on
  // first use.  Sites cache the result in a function-local static.
  FailPoint* GetOrCreate(std::string_view name);

  // Arms `name` with a full policy.  Probability draws use the current
  // seed (SetSeed) mixed with the point name, so runs are reproducible.
  void ArmPolicy(const std::string& name, const FailPointPolicy& policy);

  // Legacy API: the (countdown+1)-th Check()/Evaluate() triggers once
  // with kReturnError, then the point disarms.  countdown=0 means the
  // very next evaluation triggers.
  void Arm(const std::string& name, int countdown = 0);

  // Disarms `name` (no-op if not armed) and releases any thread parked
  // at it.
  void Disarm(const std::string& name);

  // Blocks until a thread is parked at `name` (armed with kPark) or
  // `timeout` passes; returns whether one is parked.
  bool WaitParked(const std::string& name, std::chrono::milliseconds timeout);

  // Disarms everything and zeroes fire counters (used between tests).
  // Registered points stay alive — site statics keep pointing at them.
  void Reset();

  // Legacy runtime-name check: true if the point fires now with an
  // error-like action (kDelay sleeps and reports false; kAbort kills the
  // process).  Hot-path cheap when nothing is armed anywhere.
  bool Check(const std::string& name);

  // Seed for probability draws of points armed *after* this call.
  void SetSeed(uint64_t seed);

  // Applies a failpoint spec.  Grammar (whitespace-free):
  //
  //   spec    := entry (';' entry)*
  //   entry   := name '=' action (':' param)*
  //   action  := error | short | torn | delay | abort | off
  //   param   := 'count=' N | 'p=' FLOAT | 'fires=' N | 'arg=' N
  //
  // e.g.  "filedisk.write=torn:count=12:arg=512;wal.flush=abort:p=0.01"
  // `off` disarms the named point.  fires=-1 keeps the point armed
  // forever.  Defaults: count=0, p=1.0, fires=1, arg=0.
  Status ConfigureFromSpec(std::string_view spec);

  // Reads OIB_FAILPOINT_SEED (uint64) and OIB_FAILPOINTS (spec as above);
  // returns the spec parse status.  Called from Engine::Open.
  Status ConfigureFromEnv();

  // Number of times any armed point fired since last Reset.
  int64_t fired_count() const {
    return fired_total_.load(std::memory_order_relaxed);
  }

  // Fires recorded against one point (0 if never created).
  int64_t fired_count(const std::string& name);

  // Currently armed point names (diagnostics / harness repro lines).
  std::vector<std::string> ArmedNames();

  // Registers failpoint.armed / failpoint.fired value callbacks.
  void AttachMetrics(obs::MetricsRegistry* registry);

 private:
  friend class FailPoint;
  FailPointRegistry() = default;

  // Points that are currently armed (fast-path gate for Check()).
  std::atomic<int> armed_points_{0};
  std::atomic<int64_t> fired_total_{0};
  std::atomic<uint64_t> seed_{0};
  sync::Mutex mu_{sync::LockRank::kFailPoint, "failpoint.mu"};
  std::unordered_map<std::string, std::unique_ptr<FailPoint>> points_
      OIB_GUARDED_BY(mu_);
};

}  // namespace oib

// Use at generic injection sites inside library code:
//   OIB_FAIL_POINT("nsf.before_insert_batch");
// expands to an early return of Status::Injected when the point fires.
// `name` must be a string literal (it is evaluated once).
#define OIB_FAIL_POINT(name)                                          \
  do {                                                                \
    static ::oib::FailPoint* const _oib_fp_site =                     \
        ::oib::FailPointRegistry::Instance().GetOrCreate(name);       \
    if (_oib_fp_site->armed()) {                                      \
      ::oib::Status _oib_fp_status = _oib_fp_site->Act();             \
      if (!_oib_fp_status.ok()) return _oib_fp_status;                \
    }                                                                 \
  } while (0)

// Use at I/O sites that can honour short/torn writes.  Fills `hit_var`
// (a FailPointHit lvalue) when the point fires; leaves it kOff otherwise.
#define OIB_FAIL_POINT_HIT(name, hit_var)                             \
  do {                                                                \
    static ::oib::FailPoint* const _oib_fp_site =                     \
        ::oib::FailPointRegistry::Instance().GetOrCreate(name);       \
    if (_oib_fp_site->armed()) (hit_var) = _oib_fp_site->Evaluate();  \
  } while (0)

#endif  // OIB_COMMON_FAILPOINT_H_
