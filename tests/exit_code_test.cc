// End-to-end tests of the CLI exit-code contract (tools/bddfc_cli.cc):
//
//   0  success                      2  usage / parse error
//   1  negative semantic outcome    3  resource exhausted
//
// and of the fuzzer's 0/1/2 contract plus its fault-injection flags. The
// test executes the real binaries (paths injected by CMake) and inspects
// the process exit status, so it covers argument parsing, the governor
// wiring and the report printing that unit tests cannot reach.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "bddfc/base/timescale.h"

extern char** environ;

namespace {

namespace fs = std::filesystem;
using bddfc::ScaledMs;

/// Executes `binary args...` with stdout/stderr discarded; returns the exit
/// code (or -1 when the process died abnormally).
int RunBinary(const std::string& binary, const std::string& args) {
  std::string cmd = binary + " " + args + " > /dev/null 2>&1";
  int rc = std::system(cmd.c_str());
  if (rc == -1 || !WIFEXITED(rc)) return -1;
  return WEXITSTATUS(rc);
}

/// Writes a program under the test's scratch dir and returns its path.
std::string WriteProgram(const std::string& name, const std::string& text) {
  fs::path dir = fs::current_path() / "exit_code_scratch";
  fs::create_directories(dir);
  fs::path path = dir / name;
  std::ofstream out(path);
  out << text;
  return path.string();
}

const char* kInfiniteTc =
    "e(X, Y), e(Y, Z) -> e(X, Z).\n"
    "e(X, Y) -> exists W: e(Y, W).\n"
    "e(a, b).\n"
    "?- e(X, X).\n";

const char* kTerminating =
    "e(X, Y) -> exists Z: r(Y, Z).\n"
    "e(a, b).\n"
    "?- r(X, X).\n";

TEST(CliExitCodeTest, SuccessIsZero) {
  std::string prog = WriteProgram("terminating.dlg", kTerminating);
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH, "chase " + prog), 0);
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH, "rewrite " + prog), 0);
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH, "classify " + prog), 0);
  // The chase terminates avoiding r(X, X): a counter-model exists.
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH, "model " + prog), 0);
}

TEST(CliExitCodeTest, UsageAndParseErrorsAreTwo) {
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH, ""), 2);
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH, "frobnicate nope.dlg"), 2);
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH, "chase /nonexistent/no.dlg"), 2);
  std::string bad = WriteProgram("bad.dlg", "this is not datalog (\n");
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH, "chase " + bad), 2);
  std::string prog = WriteProgram("tc.dlg", kInfiniteTc);
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH, "chase " + prog + " --deadline-ms -5"), 2);
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH, "chase " + prog + " --mem-budget-mb junk"), 2);
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH, "chase " + prog + " --paranoia=bogus"), 2);
}

TEST(CliExitCodeTest, UnknownChaseFlagsAreUsageErrors) {
  // Each of these once fell into the positional max_rounds slot, where
  // strtoul made it 0: a silent zero-round run instead of an error.
  std::string prog = WriteProgram("strict.dlg", kTerminating);
  const std::string chase = "chase " + prog;
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH, chase + " --no-plans"), 2);
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH, chase + " --no-vector-sink"), 2);
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH, chase + " --chase-engine=delta"), 2);
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH, chase + " --bogus-flag"), 2);
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH, chase + " --threads=four"), 2);
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH, chase + " --threads"), 2);
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH, chase + " 8 9"), 2);     // 2nd positional
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH, chase + " eight"), 2);   // non-numeric
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH, chase + " -3"), 2);      // negative
}

TEST(CliExitCodeTest, ThreadsEqualsFormRunsToTheFixpoint) {
  // `--threads=4` used to be read as max_rounds=0 and exit 3 (rounds
  // budget); it is now the thread count, and the chase reaches its
  // fixpoint like `--threads 4` and the default single thread.
  std::string prog = WriteProgram("threads.dlg", kTerminating);
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH, "chase " + prog + " --threads=4"), 0);
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH, "chase " + prog + " --threads 4"), 0);
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH,
                      "chase " + prog + " 16 --chase-engine=naive"),
            0);
}

TEST(CliExitCodeTest, NegativeSemanticOutcomeIsOne) {
  // The query e(X, Y) is certainly true: no counter-model exists.
  std::string certain = WriteProgram("certain.dlg",
                                     "e(X, Y) -> exists Z: e(Y, Z).\n"
                                     "e(a, b).\n"
                                     "?- e(X, Y).\n");
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH, "model " + certain), 1);
  // Every finite model of transitive closure + totality has a self-loop:
  // the exhaustive search (0 extra elements) finds nothing.
  std::string tc = WriteProgram("tc.dlg", kInfiniteTc);
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH, "search " + tc + " 0"), 1);
}

TEST(CliExitCodeTest, ResourceExhaustionIsThree) {
  std::string tc = WriteProgram("tc.dlg", kInfiniteTc);
  // Count budget (max_rounds) on a diverging chase.
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH, "chase " + tc + " 5"), 3);
  // Wall-clock deadline.
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH,
                "chase " + tc + " 1000000 --deadline-ms 20"), 3);
  // Memory budget.
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH,
                "chase " + tc + " 1000000 --mem-budget-mb 1"), 3);
  // Governed pipeline under a deadline.
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH, "model " + tc + " --deadline-ms 1"), 3);
}

// A cancellation signal mid-run flips the CancelToken: the command must
// drain at the next cooperative check and exit 3 (resource exhausted),
// not die on the signal. SIGINT (Ctrl-C) and SIGTERM (the kill(1) and
// service-manager default) share one handler and one contract. Spawns
// the diverging chase, signals it shortly after, and bounds how long the
// cooperative drain may take; delays scale under sanitizers (timescale.h).
void ExpectSignalDrainsAsExhausted(int sig, const std::string& prog_name) {
  std::string tc = WriteProgram(prog_name, kInfiniteTc);
  std::string cli = BDDFC_CLI_PATH;
  std::vector<std::string> arg_strings = {cli, "chase", tc, "1000000"};
  std::vector<char*> argv;
  for (std::string& s : arg_strings) argv.push_back(s.data());
  argv.push_back(nullptr);
  // Discard the child's output so a full pipe can never block the drain.
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 2, "/dev/null", O_WRONLY, 0);
  pid_t pid = -1;
  ASSERT_EQ(posix_spawn(&pid, cli.c_str(), &actions, nullptr, argv.data(),
                        environ),
            0);
  posix_spawn_file_actions_destroy(&actions);

  // Let it get into the chase, then signal it.
  std::this_thread::sleep_for(std::chrono::milliseconds(ScaledMs(100)));
  ASSERT_EQ(kill(pid, sig), 0);

  // The cooperative drain happens at the next round boundary; poll with a
  // generous scaled timeout rather than blocking forever on a hang.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(ScaledMs(10000));
  int status = 0;
  pid_t done = 0;
  while ((done = waitpid(pid, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (done == 0) {
    kill(pid, SIGKILL);
    waitpid(pid, &status, 0);
    FAIL() << "CLI did not drain within the scaled timeout after signal "
           << sig;
  }
  ASSERT_TRUE(WIFEXITED(status))
      << "CLI died on signal " << sig
      << " instead of draining cooperatively";
  EXPECT_EQ(WEXITSTATUS(status), 3);
}

TEST(CliExitCodeTest, SigintCancelsCooperativelyAsExhausted) {
  ExpectSignalDrainsAsExhausted(SIGINT, "sigint_tc.dlg");
}

TEST(CliExitCodeTest, SigtermCancelsCooperativelyAsExhausted) {
  ExpectSignalDrainsAsExhausted(SIGTERM, "sigterm_tc.dlg");
}

TEST(CliExitCodeTest, TraceAndMetricsOutWriteValidatedFiles) {
  // --trace-out / --metrics-out must not change the exit code, and the
  // trace must satisfy the checker's contract (well-formed, monotone ts
  // per tid, balanced B/E) with the eight pipeline stage spans present.
  std::string prog = WriteProgram("obs_example7.dlg",
                                  "e(X, Y) -> exists Z: e(Y, Z).\n"
                                  "e(X, Y), e(X1, Y) -> r(X, X1).\n"
                                  "e(a, b).\n"
                                  "?- e(X, X).\n");
  fs::path dir = fs::current_path() / "exit_code_scratch";
  std::string trace = (dir / "trace.json").string();
  std::string metrics = (dir / "metrics.json").string();
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH, "model " + prog + " --trace-out=" +
                                          trace + " --metrics-out=" + metrics),
            0);
  EXPECT_EQ(RunBinary(BDDFC_TRACE_CHECK_PATH,
                      trace +
                          " --require=pipeline.run --require=hide"
                          " --require=normalize --require=chase.run"
                          " --require=skeleton --require=color"
                          " --require=quotient --require=saturate"
                          " --require=certify"),
            0);
  // A required span that never ran must fail the check...
  EXPECT_EQ(RunBinary(BDDFC_TRACE_CHECK_PATH,
                      trace + " --require=no.such.span"),
            1);
  // ...and non-JSON input must be rejected as malformed.
  std::string bad = WriteProgram("bad_trace.json", "this is not json\n");
  EXPECT_EQ(RunBinary(BDDFC_TRACE_CHECK_PATH, bad), 1);
  EXPECT_EQ(RunBinary(BDDFC_TRACE_CHECK_PATH, ""), 2);
  // The metrics snapshot is written and non-trivial.
  std::ifstream in(metrics);
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("bddfc.chase.runs"), std::string::npos);
}

TEST(FuzzExitCodeTest, ContractIsZeroOneTwo) {
  EXPECT_EQ(RunBinary(BDDFC_FUZZ_PATH, "--list-oracles"), 0);
  EXPECT_EQ(RunBinary(BDDFC_FUZZ_PATH, "--bogus-flag"), 2);
  EXPECT_EQ(RunBinary(BDDFC_FUZZ_PATH, "--inject-bug=unknown"), 2);
  EXPECT_EQ(RunBinary(BDDFC_FUZZ_PATH, "--inject-fault=unknown"), 2);
  EXPECT_EQ(RunBinary(BDDFC_FUZZ_PATH, "--oracle=no-such-oracle"), 2);
  // A small clean campaign of the governor-prefix oracle passes...
  EXPECT_EQ(RunBinary(BDDFC_FUZZ_PATH,
                "--runs=10 --oracle=governor-prefix --inject-fault=deadline"),
            0);
  // ...and catches the deliberately torn exhaustion path (self-test).
  EXPECT_EQ(RunBinary(BDDFC_FUZZ_PATH,
                "--runs=60 --oracle=governor-prefix --inject-fault=deadline "
                "--inject-bug=torn-exhaust --no-shrink"),
            1);
}

TEST(FuzzExitCodeTest, ChaosAndParanoiaFlags) {
  EXPECT_EQ(RunBinary(BDDFC_FUZZ_PATH, "--paranoia=bogus"), 2);
  // A small chaos campaign: every random fault plan must recover to the
  // byte-identical fault-free result under the supervisor.
  EXPECT_EQ(RunBinary(BDDFC_FUZZ_PATH,
                "--runs=6 --seed=11 --oracle=chaos-recovery --chaos=3 "
                "--chaos-seed=2 --paranoia=cheap"),
            0);
  // Inverted self-test: a non-recoverable injected corruption (the sink
  // dropping duplicate-derived groups) MUST be caught when paranoia is
  // on — the campaign has to fail, or the checks are dead code.
  EXPECT_EQ(RunBinary(BDDFC_FUZZ_PATH,
                "--runs=60 --seed=1 --oracle=chase-agreement "
                "--inject-bug=sink-drop-dup --paranoia=cheap --no-shrink"),
            1);
}

}  // namespace
