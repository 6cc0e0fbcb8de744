// Chaos-engineering substrate (DESIGN.md §2.14): one registry of named,
// site-addressed fault points shared by every subsystem.
//
// The FaultRegistry is the only way a fault enters a run: tests, the
// fuzzer and serving sessions arm seeded FaultSpecs on a registry attached
// to the run's ExecutionContext (the parser takes one directly). Code at a
// fault site calls Hit("site"), usually via ExecutionContext::CheckFault,
// so a fire becomes a governed kInternal trip. Two sites read the fire's
// action instead (named below): a kGovernorCheck action trips that
// resource, a kChaseBug action breaks that chase invariant for the
// fuzzer's self-test.
//
// Cost model: a disarmed registry is one relaxed atomic load per guarded
// site — callers check enabled() (or rely on CheckFault doing so) before
// paying the mutex in Hit. Hit itself is mutex-serialized; fault sites sit
// at round/task/phase granularity, never in per-tuple loops.
//
// Determinism: every schedule is a pure function of (spec, per-site hit
// index). The probability schedule draws from a splitmix64 stream keyed on
// the spec's seed and the hit index, so the same plan over the same run
// fires at the same hits on any platform and at any thread count as long
// as per-site hit order is deterministic (which the engines guarantee at
// their site granularity: rounds, refreshes, merges are sequenced; shard
// tasks hit a shared counter, so cross-thread fire *assignment* may vary
// but fire *counts* per N hits do not for after-N/every-N).

#ifndef BDDFC_BASE_FAULTS_H_
#define BDDFC_BASE_FAULTS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace bddfc {

/// Canonical fault-site and action names. Sites are plain strings so
/// downstream code can add sites without touching this header, but the
/// known ones live here so plans, flags, corpus headers, tests and docs
/// agree on spelling.
namespace faults {
inline constexpr const char kGovernorCheck[] = "governor.check";
inline constexpr const char kChaseRound[] = "chase.round";
inline constexpr const char kChaseAlloc[] = "chase.alloc";
inline constexpr const char kIndexRefresh[] = "index.refresh";
inline constexpr const char kPlanCompile[] = "plan.compile";
inline constexpr const char kSinkMerge[] = "sink.merge";
inline constexpr const char kPoolTask[] = "pool.task";
inline constexpr const char kParserParse[] = "parser.parse";
/// Behavioral site: hit once at RunChase entry; a fire does not fail-stop
/// but breaks the chase invariant its action names, for the differential
/// fuzzer's self-test. Never armed outside that self-test.
inline constexpr const char kChaseBug[] = "chase.bug";

/// kChaseBug actions, spelled as bddfc_fuzz --inject-bug spells them:
/// skip the per-round trigger dedup (every trigger invents witnesses);
/// apply a governor-tripped round's buffered additions (a torn prefix);
/// drop every tuple the production sink derives twice in a round.
inline constexpr const char kBugChaseDedup[] = "chase-dedup";
inline constexpr const char kBugTornExhaust[] = "torn-exhaust";
inline constexpr const char kBugSinkDropDup[] = "sink-drop-dup";
/// kGovernorCheck actions, spelled as bddfc_fuzz --inject-fault and the
/// corpus '% fault:' header spell them: the fire trips that resource.
inline constexpr const char kTripDeadline[] = "deadline";
inline constexpr const char kTripOom[] = "oom";
inline constexpr const char kTripCancel[] = "cancel";
}  // namespace faults

/// When a fault fires relative to the per-site hit counter.
enum class FaultSchedule {
  kAfterN,       ///< fires on every hit with index > n
  kEveryN,       ///< fires on hits n, 2n, 3n, ...
  kProbability,  ///< fires on each hit with probability p (seeded stream)
};

/// One armed fault: where, when, how often, and what it does.
struct FaultSpec {
  std::string site;
  FaultSchedule schedule = FaultSchedule::kAfterN;
  uint64_t n = 0;          ///< after-N / every-N parameter
  double p = 0.0;          ///< probability parameter
  uint64_t seed = 0;       ///< stream seed for kProbability
  uint64_t max_fires = 0;  ///< stop firing after this many (0 = unlimited)
  /// Empty = fail-stop (the site aborts with kInternal). Non-empty names a
  /// behavioral fault the site interprets: a faults::kBug* action at
  /// faults::kChaseBug, a faults::kTrip* action at faults::kGovernorCheck.
  std::string action;

  /// "site sched=after-n n=2 max-fires=1" style one-liner.
  std::string ToString() const;
};

/// An ordered set of faults armed together — the unit the chaos oracle
/// randomizes and ddmin shrinks.
struct FaultPlan {
  std::vector<FaultSpec> faults;

  bool empty() const { return faults.empty(); }
  /// One spec per line; stable (used in failure reports and shrinking).
  std::string ToString() const;
};

/// Outcome of one Hit: did a fault fire, and with what action.
struct FaultFire {
  bool fired = false;
  std::string action;
};

/// Thread-safe registry of armed fault points. Zero-cost when disarmed:
/// enabled() is one relaxed load and is false until the first Arm.
class FaultRegistry {
 public:
  FaultRegistry() = default;
  FaultRegistry(const FaultRegistry&) = delete;
  FaultRegistry& operator=(const FaultRegistry&) = delete;

  /// Arms one fault. Multiple specs may target the same site; the first
  /// one whose schedule matches a given hit wins.
  void Arm(FaultSpec spec);
  /// Arms every fault of a plan.
  void ArmPlan(const FaultPlan& plan);
  /// Disarms every fault and clears hit/fire counters.
  void Disarm();

  /// True iff at least one fault is armed. The fast-path guard: sites
  /// skip Hit entirely when this is false.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Records a hit at `site` and evaluates armed schedules against the
  /// site's hit index (1-based). Hits are counted even for sites with no
  /// armed fault, so tests can assert coverage of instrumented sites.
  FaultFire Hit(std::string_view site);

  /// Hits / fires observed at `site` since the last Disarm.
  uint64_t HitCount(std::string_view site) const;
  uint64_t FireCount(std::string_view site) const;
  /// Sites with at least one armed fault, sorted.
  std::vector<std::string> ArmedSites() const;

 private:
  struct Armed {
    FaultSpec spec;
    uint64_t fires = 0;
  };

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::map<std::string, std::vector<Armed>, std::less<>> armed_;
  std::map<std::string, uint64_t, std::less<>> hits_;
  std::map<std::string, uint64_t, std::less<>> fires_;
};

/// Every site the library instruments, sorted — the chaos oracle's
/// coverage universe.
const std::vector<std::string>& AllFaultSites();

/// The fail-stop sites on the chase path that the supervisor must recover
/// from (AllFaultSites minus parser.parse, which has no retry loop, and
/// minus the behavioral chase.bug site).
const std::vector<std::string>& RecoverableFaultSites();

/// Deterministic random fault plan over `sites` (default: recoverable
/// sites): 1–3 specs, mixed schedules, and always bounded fail-stop
/// (max_fires in {1,2}, empty action) so a supervised run is guaranteed
/// to recover. Same seed, same plan.
FaultPlan RandomFaultPlan(uint64_t seed);
FaultPlan RandomFaultPlan(uint64_t seed, const std::vector<std::string>& sites);

/// Runtime invariant-checking intensity (DESIGN.md §2.14): kOff pays
/// nothing, kCheap adds O(1)-per-round identities, kFull re-verifies
/// per-round buffers against the frozen structure.
enum class ParanoiaLevel {
  kOff = 0,
  kCheap,
  kFull,
};

/// Parses a level name ("off", "cheap", "full", the --paranoia values);
/// returns false (and leaves *out alone) on unknown.
bool ParanoiaLevelFromName(std::string_view name, ParanoiaLevel* out);

}  // namespace bddfc

#endif  // BDDFC_BASE_FAULTS_H_
