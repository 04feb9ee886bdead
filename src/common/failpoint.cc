#include "common/failpoint.h"

#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "obs/metrics.h"

namespace oib {

namespace {

// xorshift64* — tiny, seedable, good enough for fire/no-fire draws.
uint64_t NextRand(uint64_t* state) {
  uint64_t x = *state;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  *state = x;
  return x * 0x2545f4914f6cdd1dULL;
}

double NextUniform(uint64_t* state) {
  return double(NextRand(state) >> 11) * 0x1.0p-53;
}

[[noreturn]] void HardAbort(const std::string& name) {
  // The crash harness greps for this line to confirm the kill site.
  std::fprintf(stderr, "[failpoint] %s: hard abort (SIGKILL)\n", name.c_str());
  std::fflush(stderr);
  ::kill(::getpid(), SIGKILL);
  std::abort();  // unreachable unless SIGKILL is somehow blocked
}

}  // namespace

void FailPointHardAbort(const std::string& site) { HardAbort(site); }

const char* FailPointActionName(FailPointAction a) {
  switch (a) {
    case FailPointAction::kOff:
      return "off";
    case FailPointAction::kReturnError:
      return "error";
    case FailPointAction::kShortWrite:
      return "short";
    case FailPointAction::kTornWrite:
      return "torn";
    case FailPointAction::kDelay:
      return "delay";
    case FailPointAction::kAbort:
      return "abort";
    case FailPointAction::kPark:
      return "park";
  }
  return "unknown";
}

void FailPoint::SetPolicy(const FailPointPolicy& policy, uint64_t seed) {
  bool was_armed;
  {
    sync::MutexLock g(&mu_);
    policy_ = policy;
    fires_left_ = policy.max_fires;
    // Mix the point name into the seed so two points armed with the same
    // global seed draw independent sequences, then finalize with
    // splitmix64 so adjacent seeds land far apart in state space.
    uint64_t h = 1469598103934665603ULL;  // FNV-1a
    for (char c : name_) h = (h ^ uint8_t(c)) * 1099511628211ULL;
    uint64_t z = (seed ^ h) + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    rng_ = (z ^ (z >> 31)) | 1;  // xorshift state must be nonzero
    was_armed = armed_.exchange(true, std::memory_order_relaxed);
  }
  if (!was_armed) FailPointRegistry::Instance().armed_points_.fetch_add(1);
}

void FailPoint::Disarm() {
  bool was_armed;
  {
    sync::MutexLock g(&mu_);
    was_armed = armed_.exchange(false, std::memory_order_relaxed);
    ++release_gen_;
  }
  park_cv_.NotifyAll();
  if (was_armed) FailPointRegistry::Instance().armed_points_.fetch_sub(1);
}

void FailPoint::Park() {
  sync::MutexLock g(&mu_);
  const uint64_t gen = release_gen_;
  ++parked_;
  park_cv_.NotifyAll();
  while (release_gen_ == gen) park_cv_.Wait(mu_);
  --parked_;
}

bool FailPoint::WaitParked(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  sync::MutexLock g(&mu_);
  while (parked_ == 0) {
    if (park_cv_.WaitUntil(mu_, deadline) == std::cv_status::timeout) {
      return parked_ > 0;
    }
  }
  return true;
}

void FailPoint::ResetCounts() { fired_.store(0, std::memory_order_relaxed); }

FailPointHit FailPoint::Evaluate() {
  FailPointHit hit;
  bool disarm_now = false;
  {
    sync::MutexLock g(&mu_);
    if (!armed_.load(std::memory_order_relaxed)) return hit;
    if (policy_.countdown > 0) {
      --policy_.countdown;
      return hit;
    }
    if (policy_.probability < 1.0 && NextUniform(&rng_) >= policy_.probability) {
      return hit;
    }
    hit.action = policy_.action;
    hit.arg = policy_.arg;
    fired_.fetch_add(1, std::memory_order_relaxed);
    if (fires_left_ > 0 && --fires_left_ == 0) {
      armed_.store(false, std::memory_order_relaxed);
      disarm_now = true;
    }
  }
  auto& registry = FailPointRegistry::Instance();
  registry.fired_total_.fetch_add(1, std::memory_order_relaxed);
  if (disarm_now) registry.armed_points_.fetch_sub(1);
  if (hit.action == FailPointAction::kAbort) HardAbort(name_);
  if (hit.action == FailPointAction::kDelay) {
    std::this_thread::sleep_for(std::chrono::microseconds(hit.arg));
  }
  if (hit.action == FailPointAction::kPark) {
    Park();
    hit.action = FailPointAction::kOff;  // released: the site continues
  }
  return hit;
}

Status FailPoint::Act() {
  FailPointHit hit = Evaluate();
  switch (hit.action) {
    case FailPointAction::kOff:
    case FailPointAction::kDelay:
      return Status::OK();
    default:
      return Status::Injected(name_);
  }
}

FailPointRegistry& FailPointRegistry::Instance() {
  static FailPointRegistry* instance = new FailPointRegistry();
  return *instance;
}

FailPoint* FailPointRegistry::GetOrCreate(std::string_view name) {
  sync::MutexLock g(&mu_);
  auto it = points_.find(std::string(name));
  if (it != points_.end()) return it->second.get();
  auto point = std::unique_ptr<FailPoint>(new FailPoint(std::string(name)));
  FailPoint* raw = point.get();
  points_.emplace(raw->name(), std::move(point));
  return raw;
}

void FailPointRegistry::ArmPolicy(const std::string& name,
                                  const FailPointPolicy& policy) {
  GetOrCreate(name)->SetPolicy(policy, seed_.load(std::memory_order_relaxed));
}

void FailPointRegistry::Arm(const std::string& name, int countdown) {
  FailPointPolicy policy;  // kReturnError, fire once
  policy.countdown = countdown;
  ArmPolicy(name, policy);
}

void FailPointRegistry::Disarm(const std::string& name) {
  GetOrCreate(name)->Disarm();
}

bool FailPointRegistry::WaitParked(const std::string& name,
                                   std::chrono::milliseconds timeout) {
  return GetOrCreate(name)->WaitParked(timeout);
}

void FailPointRegistry::Reset() {
  std::vector<FailPoint*> all;
  {
    sync::MutexLock g(&mu_);
    all.reserve(points_.size());
    for (auto& [_, point] : points_) all.push_back(point.get());
  }
  for (FailPoint* p : all) {
    p->Disarm();
    p->ResetCounts();
  }
  fired_total_.store(0, std::memory_order_relaxed);
}

bool FailPointRegistry::Check(const std::string& name) {
  if (armed_points_.load(std::memory_order_relaxed) == 0) return false;
  FailPoint* point = GetOrCreate(name);
  if (!point->armed()) return false;
  FailPointHit hit = point->Evaluate();
  switch (hit.action) {
    case FailPointAction::kOff:
    case FailPointAction::kDelay:
      return false;
    default:
      return true;
  }
}

void FailPointRegistry::SetSeed(uint64_t seed) {
  seed_.store(seed, std::memory_order_relaxed);
}

namespace {

Status BadSpec(std::string_view spec, const std::string& why) {
  return Status::InvalidArgument("failpoint spec \"" + std::string(spec) +
                                 "\": " + why);
}

bool ParseAction(std::string_view token, FailPointAction* action) {
  if (token == "error") *action = FailPointAction::kReturnError;
  else if (token == "short") *action = FailPointAction::kShortWrite;
  else if (token == "torn") *action = FailPointAction::kTornWrite;
  else if (token == "delay") *action = FailPointAction::kDelay;
  else if (token == "abort") *action = FailPointAction::kAbort;
  else if (token == "off") *action = FailPointAction::kOff;
  else return false;
  return true;
}

}  // namespace

Status FailPointRegistry::ConfigureFromSpec(std::string_view spec) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(';', pos);
    if (end == std::string_view::npos) end = spec.size();
    std::string_view entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;

    size_t eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return BadSpec(entry, "expected name=action");
    }
    std::string name(entry.substr(0, eq));
    std::string_view rest = entry.substr(eq + 1);

    size_t colon = rest.find(':');
    std::string_view action_tok = rest.substr(0, colon);
    FailPointPolicy policy;
    if (!ParseAction(action_tok, &policy.action)) {
      return BadSpec(entry, "unknown action \"" + std::string(action_tok) +
                                "\"");
    }
    if (policy.action == FailPointAction::kOff) {
      Disarm(name);
      continue;
    }
    while (colon != std::string_view::npos) {
      rest = rest.substr(colon + 1);
      colon = rest.find(':');
      std::string_view param = rest.substr(0, colon);
      size_t peq = param.find('=');
      if (peq == std::string_view::npos) {
        return BadSpec(entry, "expected key=value, got \"" +
                                  std::string(param) + "\"");
      }
      std::string key(param.substr(0, peq));
      std::string value(param.substr(peq + 1));
      errno = 0;
      char* parse_end = nullptr;
      if (key == "p") {
        policy.probability = std::strtod(value.c_str(), &parse_end);
      } else if (key == "count") {
        policy.countdown = int(std::strtol(value.c_str(), &parse_end, 10));
      } else if (key == "fires") {
        policy.max_fires = int(std::strtol(value.c_str(), &parse_end, 10));
      } else if (key == "arg") {
        policy.arg = uint32_t(std::strtoul(value.c_str(), &parse_end, 10));
      } else {
        return BadSpec(entry, "unknown param \"" + key + "\"");
      }
      if (errno != 0 || parse_end == value.c_str() || *parse_end != '\0') {
        return BadSpec(entry, "bad value for \"" + key + "\"");
      }
    }
    if (policy.probability < 0.0 || policy.probability > 1.0) {
      return BadSpec(entry, "probability outside [0, 1]");
    }
    ArmPolicy(name, policy);
  }
  return Status::OK();
}

Status FailPointRegistry::ConfigureFromEnv() {
  if (const char* seed = std::getenv("OIB_FAILPOINT_SEED")) {
    SetSeed(std::strtoull(seed, nullptr, 10));
  }
  if (const char* spec = std::getenv("OIB_FAILPOINTS")) {
    return ConfigureFromSpec(spec);
  }
  return Status::OK();
}

int64_t FailPointRegistry::fired_count(const std::string& name) {
  sync::MutexLock g(&mu_);
  auto it = points_.find(name);
  return it == points_.end() ? 0 : it->second->fired();
}

std::vector<std::string> FailPointRegistry::ArmedNames() {
  std::vector<std::string> names;
  sync::MutexLock g(&mu_);
  for (auto& [name, point] : points_) {
    if (point->armed()) names.push_back(name);
  }
  return names;
}

void FailPointRegistry::AttachMetrics(obs::MetricsRegistry* registry) {
  registry->RegisterValueFn(
      "failpoint.armed",
      [this] { return uint64_t(armed_points_.load(std::memory_order_relaxed)); },
      this);
  registry->RegisterValueFn(
      "failpoint.fired",
      [this] { return uint64_t(fired_total_.load(std::memory_order_relaxed)); },
      this);
}

}  // namespace oib
