// Replayable failure corpus (DESIGN.md §2.8).
//
// Every minimized reproducer the shrinker emits is a plain .dlg program
// with a small comment header naming the oracle it must satisfy:
//
//   % bddfc-corpus
//   % oracle: chase-agreement
//   % family: acyclic-binary
//   % seed: 42
//   % note: nulls diverged: 3 vs 2
//   a(X) -> exists V0: r(X, V0).
//   a(c0).
//
// The header lines are ordinary comments, so the file also loads in every
// other tool (bddfc chase/rewrite/…). tests/corpus/ is replayed under
// ctest (corpus_replay_test), turning each minimized failure into a
// permanent regression test.

#ifndef BDDFC_TESTING_CORPUS_H_
#define BDDFC_TESTING_CORPUS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bddfc/base/status.h"
#include "bddfc/testing/oracles.h"
#include "bddfc/testing/scenario.h"

namespace bddfc {

/// One corpus file: the oracle to replay plus the program text.
struct CorpusEntry {
  std::string oracle;   ///< oracle name (must resolve via FindOracle)
  std::string family;   ///< generator family the scenario came from
  uint64_t seed = 0;    ///< originating fuzzer scenario seed (0 = crafted)
  std::string fault;    ///< governor-prefix interruption to arm on replay
                        ///< ("", or a faults::kTrip* action: "deadline",
                        ///< "oom", "cancel") — governor-prefix entries only
  size_t chaos = 0;     ///< fault plans to arm on replay (chaos-recovery
                        ///< entries only; 0 = none)
  uint64_t chaos_seed = 0;  ///< plan-stream seed recorded with `chaos`
  std::string note;     ///< free-form provenance (failure detail, PR, ...)
  std::string program;  ///< .dlg program text (no header lines)
};

/// Renders an entry as header comments + program text.
std::string CorpusEntryToText(const CorpusEntry& entry);

/// Parses header comments and program text back out of a corpus file.
/// The 'oracle:' header is required; everything else is optional.
Result<CorpusEntry> ParseCorpusText(std::string_view text);

/// Loads one corpus file from disk.
Result<CorpusEntry> LoadCorpusFile(const std::string& path);

/// All .dlg files directly under `dir`, sorted by name (empty when the
/// directory is missing).
std::vector<std::string> ListCorpusFiles(const std::string& dir);

/// Replays an entry: parses its program into a scenario and runs its
/// oracle. Unknown oracle names and parse errors report as kFail.
OracleOutcome ReplayCorpusEntry(const CorpusEntry& entry,
                                const OracleConfig& config = {});

}  // namespace bddfc

#endif  // BDDFC_TESTING_CORPUS_H_
