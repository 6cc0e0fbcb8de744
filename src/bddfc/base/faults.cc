#include "bddfc/base/faults.h"

#include <algorithm>

namespace bddfc {
namespace {

// splitmix64: the registry's only randomness source, so probability
// schedules and RandomFaultPlan are platform-independent.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Uniform double in [0, 1) from the top 53 bits.
double UnitDouble(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

const char* ScheduleName(FaultSchedule s) {
  switch (s) {
    case FaultSchedule::kAfterN:
      return "after-n";
    case FaultSchedule::kEveryN:
      return "every-n";
    case FaultSchedule::kProbability:
      return "probability";
  }
  return "?";
}

// Does `spec` fire on the 1-based hit `index`?
bool ScheduleFires(const FaultSpec& spec, uint64_t index) {
  switch (spec.schedule) {
    case FaultSchedule::kAfterN:
      return index > spec.n;
    case FaultSchedule::kEveryN:
      return spec.n > 0 && index % spec.n == 0;
    case FaultSchedule::kProbability:
      return UnitDouble(SplitMix64(spec.seed ^ (index * 0x2545f4914f6cdd1dull))) <
             spec.p;
  }
  return false;
}

}  // namespace

std::string FaultSpec::ToString() const {
  std::string out = site;
  out += " sched=";
  out += ScheduleName(schedule);
  if (schedule == FaultSchedule::kProbability) {
    out += " p=" + std::to_string(p) + " seed=" + std::to_string(seed);
  } else {
    out += " n=" + std::to_string(n);
  }
  if (max_fires != 0) out += " max-fires=" + std::to_string(max_fires);
  if (!action.empty()) out += " action=" + action;
  return out;
}

std::string FaultPlan::ToString() const {
  std::string out;
  for (const FaultSpec& f : faults) {
    out += f.ToString();
    out += '\n';
  }
  return out;
}

void FaultRegistry::Arm(FaultSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_[spec.site].push_back(Armed{std::move(spec), 0});
  enabled_.store(true, std::memory_order_relaxed);
}

void FaultRegistry::ArmPlan(const FaultPlan& plan) {
  for (const FaultSpec& spec : plan.faults) Arm(spec);
}

void FaultRegistry::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.clear();
  hits_.clear();
  fires_.clear();
  enabled_.store(false, std::memory_order_relaxed);
}

FaultFire FaultRegistry::Hit(std::string_view site) {
  FaultFire out;
  if (!enabled()) return out;
  std::lock_guard<std::mutex> lock(mu_);
  auto hit_it = hits_.find(site);
  if (hit_it == hits_.end()) hit_it = hits_.emplace(std::string(site), 0).first;
  const uint64_t index = ++hit_it->second;
  auto it = armed_.find(site);
  if (it == armed_.end()) return out;
  for (Armed& a : it->second) {
    if (a.spec.max_fires != 0 && a.fires >= a.spec.max_fires) continue;
    if (!ScheduleFires(a.spec, index)) continue;
    ++a.fires;
    auto fire_it = fires_.find(site);
    if (fire_it == fires_.end()) {
      fire_it = fires_.emplace(std::string(site), 0).first;
    }
    ++fire_it->second;
    out.fired = true;
    out.action = a.spec.action;
    return out;
  }
  return out;
}

uint64_t FaultRegistry::HitCount(std::string_view site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = hits_.find(site);
  return it == hits_.end() ? 0 : it->second;
}

uint64_t FaultRegistry::FireCount(std::string_view site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = fires_.find(site);
  return it == fires_.end() ? 0 : it->second;
}

std::vector<std::string> FaultRegistry::ArmedSites() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(armed_.size());
  for (const auto& [site, specs] : armed_) {
    if (!specs.empty()) out.push_back(site);
  }
  return out;
}

const std::vector<std::string>& AllFaultSites() {
  static const std::vector<std::string>* sites = new std::vector<std::string>{
      faults::kChaseAlloc,   faults::kChaseBug,   faults::kChaseRound,
      faults::kGovernorCheck, faults::kIndexRefresh, faults::kParserParse,
      faults::kPlanCompile,  faults::kPoolTask,   faults::kSinkMerge,
  };
  return *sites;
}

const std::vector<std::string>& RecoverableFaultSites() {
  static const std::vector<std::string>* sites = new std::vector<std::string>{
      faults::kChaseAlloc,    faults::kChaseRound, faults::kGovernorCheck,
      faults::kIndexRefresh,  faults::kPlanCompile, faults::kPoolTask,
      faults::kSinkMerge,
  };
  return *sites;
}

FaultPlan RandomFaultPlan(uint64_t seed) {
  return RandomFaultPlan(seed, RecoverableFaultSites());
}

FaultPlan RandomFaultPlan(uint64_t seed,
                          const std::vector<std::string>& sites) {
  FaultPlan plan;
  if (sites.empty()) return plan;
  uint64_t state = SplitMix64(seed ^ 0xc6a4a7935bd1e995ull);
  auto next = [&state]() {
    state = SplitMix64(state);
    return state;
  };
  const size_t count = 1 + next() % 3;
  for (size_t i = 0; i < count; ++i) {
    FaultSpec spec;
    spec.site = sites[next() % sites.size()];
    switch (next() % 3) {
      case 0:
        spec.schedule = FaultSchedule::kAfterN;
        spec.n = next() % 5;  // fires from hit n+1 on
        break;
      case 1:
        spec.schedule = FaultSchedule::kEveryN;
        spec.n = 1 + next() % 3;
        break;
      default:
        spec.schedule = FaultSchedule::kProbability;
        spec.p = 0.3 + 0.6 * UnitDouble(next());
        spec.seed = next();
        break;
    }
    // Bounded fail-stop only: a random plan must always be recoverable,
    // so it never picks a behavioral action and never fires unboundedly.
    spec.max_fires = 1 + next() % 2;
    plan.faults.push_back(std::move(spec));
  }
  return plan;
}

bool ParanoiaLevelFromName(std::string_view name, ParanoiaLevel* out) {
  if (name == "off") {
    *out = ParanoiaLevel::kOff;
  } else if (name == "cheap") {
    *out = ParanoiaLevel::kCheap;
  } else if (name == "full") {
    *out = ParanoiaLevel::kFull;
  } else {
    return false;
  }
  return true;
}

}  // namespace bddfc
