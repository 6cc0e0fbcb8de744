// End-to-end tests of the CLI exit-code contract (tools/bddfc_cli.cc):
//
//   0  success                      2  usage / parse error
//   1  negative semantic outcome    3  resource exhausted
//
// and of the other four tools: the fuzzer's 0/1/2 contract plus its
// fault-injection flags and output paths, and the strict flag parsing
// (base/flags.h) of bddfc_fuzz, bddfc_loadgen, bddfc_serve and
// trace_check. The test executes the real binaries (paths injected by
// CMake) and inspects the process exit status and output, so it covers
// argument parsing, the governor wiring and the report printing that unit
// tests cannot reach.

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
#include <sstream>
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

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Starts `args[0]` with `args` as its argv, its stdout and stderr sent
/// to the given files (or discarded when empty); `out_fd` >= 0 sends
/// stdout to that descriptor instead. The child starts with SIGPIPE at
/// its default action, whatever this process does with it.
pid_t Spawn(std::vector<std::string> args, const std::string& out_path = "",
            const std::string& err_path = "", int out_fd = -1) {
  std::vector<char*> argv;
  for (std::string& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);
  // A discarded stream goes to /dev/null, so a full pipe can never block
  // the child.
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  if (out_fd >= 0) {
    posix_spawn_file_actions_adddup2(&actions, out_fd, 1);
  } else {
    posix_spawn_file_actions_addopen(
        &actions, 1, out_path.empty() ? "/dev/null" : out_path.c_str(),
        O_WRONLY | O_CREAT | O_TRUNC, 0644);
  }
  posix_spawn_file_actions_addopen(
      &actions, 2, err_path.empty() ? "/dev/null" : err_path.c_str(),
      O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawnattr_t attr;
  posix_spawnattr_init(&attr);
  sigset_t sigpipe;
  sigemptyset(&sigpipe);
  sigaddset(&sigpipe, SIGPIPE);
  posix_spawnattr_setsigdefault(&attr, &sigpipe);
  posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETSIGDEF);
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, argv[0], &actions, &attr, argv.data(), environ);
  posix_spawnattr_destroy(&attr);
  posix_spawn_file_actions_destroy(&actions);
  return rc == 0 ? pid : -1;
}

/// Waits up to `timeout_ms` for `pid` to exit and returns its exit code;
/// kills it and returns -1 on a timeout or a death by signal.
int WaitExit(pid_t pid, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  int status = 0;
  pid_t done = 0;
  while ((done = waitpid(pid, &status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (done == 0) {
    kill(pid, SIGKILL);
    waitpid(pid, &status, 0);
    return -1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Runs `binary` with the space-separated `args`, keeping its stdout and
/// stderr; returns its exit code, or -1 when it dies on a signal or runs
/// past a minute (scaled), as an endless campaign would.
int RunCaptured(const std::string& binary, const std::string& args,
                std::string* out, std::string* err) {
  // ctest runs the tests of this binary as parallel processes that share
  // the scratch dir: name the capture files per process and call.
  static int calls = 0;
  const fs::path dir = fs::current_path() / "exit_code_scratch";
  fs::create_directories(dir);
  const std::string stem = "captured." + std::to_string(getpid()) + "." +
                           std::to_string(calls++);
  const fs::path out_path = dir / (stem + ".out");
  const fs::path err_path = dir / (stem + ".err");
  std::vector<std::string> argv = {binary};
  std::istringstream words(args);
  for (std::string w; words >> w;) argv.push_back(w);
  const pid_t pid = Spawn(argv, out_path.string(), err_path.string());
  const int rc = pid > 0 ? WaitExit(pid, ScaledMs(60000)) : -1;
  *out = ReadFile(out_path);
  *err = ReadFile(err_path);
  fs::remove(out_path);
  fs::remove(err_path);
  return rc;
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

TEST(CliExitCodeTest, BudgetTrippedChaseOutputIsThreadInvariant) {
  // A max_rounds trip on a chase that is far from its fixpoint: apart from
  // the wall time, stdout (the resource report's cancel_checks included)
  // is the same at 1 and 4 threads.
  std::string text = "e(X, Y), e(Y, Z), e(Z, W) -> e(X, W).\n";
  for (int i = 0; i < 150; ++i) {
    text += "e(c" + std::to_string(i) + ", c" + std::to_string(i + 1) + ").\n";
  }
  const std::string prog = WriteProgram("tripped_path.dlg", text);
  auto stdout_without_wall_time = [&prog](const std::string& threads) {
    std::string out, err;
    EXPECT_EQ(RunCaptured(BDDFC_CLI_PATH,
                          "chase " + prog + " 5 --threads " + threads, &out,
                          &err),
              3)
        << "threads " << threads << ": " << err;
    const std::string field = " chase_ms=";
    const size_t at = out.find(field);
    EXPECT_NE(at, std::string::npos) << out.substr(0, 400);
    if (at != std::string::npos) {
      out.erase(at, out.find_first_of(" \n", at + 1) - at);
    }
    return out;
  };
  const std::string one = stdout_without_wall_time("1");
  EXPECT_NE(one.find("cancel_checks="), std::string::npos);
  EXPECT_EQ(one, stdout_without_wall_time("4"));
}

// A cancellation signal mid-run flips the CancelToken: the command must
// drain at the next cooperative check and exit 3 (resource exhausted),
// not die on the signal. SIGINT (Ctrl-C) and SIGTERM (the kill(1) and
// service-manager default) share one handler and one contract. Spawns
// the diverging chase, signals it shortly after, and bounds how long the
// cooperative drain may take; delays scale under sanitizers (timescale.h).
void ExpectSignalDrainsAsExhausted(int sig, const std::string& prog_name) {
  std::string tc = WriteProgram(prog_name, kInfiniteTc);
  const pid_t pid = Spawn({BDDFC_CLI_PATH, "chase", tc, "1000000"});
  ASSERT_GT(pid, 0);

  // Let it get into the chase, then signal it.
  std::this_thread::sleep_for(std::chrono::milliseconds(ScaledMs(100)));
  ASSERT_EQ(kill(pid, sig), 0);

  // The cooperative drain happens at the next round boundary; wait with a
  // generous scaled timeout rather than blocking forever on a hang. -1
  // means a hang (killed) or a death on the signal instead of a drain.
  EXPECT_EQ(WaitExit(pid, ScaledMs(10000)), 3) << "after signal " << sig;
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

TEST(CliExitCodeTest, ClosedStdoutPipeStillWritesTheExports) {
  // `bddfc chase ... --trace-out=F | head -2`: once the reader has gone
  // the rest of the output is lost, but the process must not die on
  // SIGPIPE before it writes its --trace-out and --metrics-out files. The
  // chase prints about 4,000 facts, far more than stdout buffers, so its
  // output reaches the closed pipe before the exports are written.
  std::string text;
  for (int i = 0; i < 2000; ++i) {
    text += "e(c" + std::to_string(i) + ", c" + std::to_string(i + 1) +
            ").\n";
  }
  text += "e(X, Y) -> r(Y, X).\n";
  const std::string prog = WriteProgram("closed_pipe.dlg", text);
  const fs::path dir = fs::current_path() / "exit_code_scratch";
  const std::string stem = "closed_pipe." + std::to_string(getpid());
  const fs::path trace = dir / (stem + ".trace.json");
  const fs::path metrics = dir / (stem + ".metrics.json");
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  close(fds[0]);  // the reader is gone before the first write
  const pid_t pid = Spawn({BDDFC_CLI_PATH, "chase", prog,
                           "--trace-out=" + trace.string(),
                           "--metrics-out=" + metrics.string()},
                          "", "", fds[1]);
  close(fds[1]);
  ASSERT_GT(pid, 0);
  // -1 is a death by signal: SIGPIPE killed it before the exports.
  EXPECT_EQ(WaitExit(pid, ScaledMs(60000)), 0);
  EXPECT_NE(ReadFile(trace).find("\"name\":\"chase.run\""),
            std::string::npos);
  EXPECT_NE(ReadFile(metrics).find("\"counters\""), std::string::npos);
  fs::remove(trace);
  fs::remove(metrics);
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

TEST(CliExitCodeTest, ValuedFlagsTakeEitherSpelling) {
  // `--deadline-ms=N` and `--paranoia VALUE` used to be usage errors; every
  // valued flag now takes both spellings with the same meaning.
  std::string prog = WriteProgram("spellings.dlg", kTerminating);
  const std::string chase = "chase " + prog;
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH, chase + " --deadline-ms=5000"), 0);
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH, chase + " --deadline-ms 5000"), 0);
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH, chase + " --paranoia cheap"), 0);
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH, chase + " --paranoia=cheap"), 0);
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH, chase + " --mem-budget-mb=64"), 0);
  // A budget whose byte count overflows, and an empty value.
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH, chase + " --mem-budget-mb=1e300"), 2);
  EXPECT_EQ(RunBinary(BDDFC_CLI_PATH, chase + " --trace-out="), 2);
}

/// A usage error: exit 2 with the offending flag named on stderr.
struct BadFlag {
  std::string args;
  const char* flag;
};

void ExpectUsageErrors(const char* binary, const std::vector<BadFlag>& cases) {
  for (const BadFlag& c : cases) {
    std::string out, err;
    EXPECT_EQ(RunCaptured(binary, c.args, &out, &err), 2) << c.args;
    EXPECT_NE(err.find(c.flag), std::string::npos)
        << c.args << ": stderr does not name " << c.flag << ":\n"
        << err;
  }
}

TEST(FuzzExitCodeTest, BadFlagValuesAreUsageErrors) {
  // Each of these used to run a different campaign and exit 0: "abc" read
  // as 0 runs, "5x" as 5, and --chaos=x silently disabled the chaos oracle.
  ExpectUsageErrors(BDDFC_FUZZ_PATH,
                    {{"--runs=abc", "--runs"},
                     {"--runs=5x", "--runs"},
                     {"--seed=abc --runs=1", "--seed"},
                     {"--max-failures=z --runs=1", "--max-failures"},
                     {"--chaos=x --oracle=chaos-recovery --runs=1", "--chaos"},
                     {"--runs=-1", "--runs"},
                     {"--runs=18446744073709551616", "--runs"},
                     {"--runs", "--runs"},
                     {"--oracle= --runs=1", "--oracle"},
                     {"--replay=", "--replay"},
                     {"--time-budget=2.5x --runs=1", "--time-budget"},
                     {"--no-shrink=1 --runs=1", "--no-shrink"},
                     {"stray --runs=1", "stray"}});
  // The space spelling of a valued flag runs the same campaign.
  EXPECT_EQ(RunBinary(BDDFC_FUZZ_PATH, "--runs 2 --seed=1"), 0);
}

TEST(FuzzExitCodeTest, UnwritableOutputsAreNamedAfterTheReport) {
  // An unwritable artifact path used to exit 0 with nothing written.
  std::string out, err;
  EXPECT_EQ(RunCaptured(BDDFC_FUZZ_PATH,
                        "--runs=1 --trace-out=/nonexistent/t.json", &out,
                        &err),
            2);
  EXPECT_NE(err.find("/nonexistent/t.json"), std::string::npos) << err;
  EXPECT_NE(out.find("runs=1 "), std::string::npos) << out;
  EXPECT_EQ(RunCaptured(BDDFC_FUZZ_PATH,
                        "--runs=1 --metrics-out=/nonexistent/m.json", &out,
                        &err),
            2);
  EXPECT_NE(err.find("/nonexistent/m.json"), std::string::npos) << err;

  // A corpus directory that cannot be created used to abort the process
  // (an uncaught filesystem_error) before the report was printed. The
  // failing campaign keeps its exit 1, prints its report and reproducer,
  // and names the path.
  const std::string blocker = WriteProgram("not_a_directory", "a file\n");
  const std::string failing =
      "--runs=50 --oracle=chase-agreement --inject-bug=chase-dedup "
      "--no-shrink --corpus-out=";
  EXPECT_EQ(RunCaptured(BDDFC_FUZZ_PATH, failing + blocker + "/corpus", &out,
                        &err),
            1);
  EXPECT_NE(out.find("FAIL oracle=chase-agreement"), std::string::npos)
      << out;
  EXPECT_NE(out.find("--- minimized reproducer ---"), std::string::npos);
  EXPECT_EQ(out.find("wrote "), std::string::npos) << out;
  EXPECT_NE(err.find(blocker + "/corpus"), std::string::npos) << err;

  // A writable directory gets the reproducer, announced once written.
  const fs::path corpus = fs::current_path() / "exit_code_scratch" / "corpus";
  fs::remove_all(corpus);
  EXPECT_EQ(RunCaptured(BDDFC_FUZZ_PATH, failing + corpus.string(), &out,
                        &err),
            1);
  EXPECT_NE(out.find("wrote " + corpus.string() + "/chase-agreement-"),
            std::string::npos)
      << out;
  EXPECT_FALSE(fs::is_empty(corpus));
}

TEST(LoadgenExitCodeTest, BadFlagValuesAreUsageErrors) {
  // The first three used to run and exit 0 (strtoull stopped at the junk
  // or wrapped the sign); the bad port was dialed modulo 65536.
  ExpectUsageErrors(
      BDDFC_LOADGEN_PATH,
      {{"--requests=10x --tenants=2 --workers=2", "--requests"},
       {"--tenants=2x --workers=2 --requests=10", "--tenants"},
       {"--seed=-1 --tenants=2 --workers=2 --requests=10", "--seed"},
       {"--connect=127.0.0.1:99999", "--connect"},
       {"--connect=127.0.0.1", "--connect"},
       {"--connect=:80", "--connect"},
       {"--workers=0", "--workers"},
       {"--json=", "--json"},
       {"--bogus", "--bogus"}});
  // The space spelling of a valued flag runs the same job.
  EXPECT_EQ(RunBinary(BDDFC_LOADGEN_PATH,
                      "--tenants 2 --workers 2 --requests 10 --seed 3"),
            0);
}

TEST(ServeExitCodeTest, BadFlagValuesExitBeforeServing) {
  // A daemon that starts instead of exiting is killed at the timeout and
  // reads as -1: the MiB-to-bytes shift of the first one used to wrap, and
  // the daemon served with a bogus budget.
  const std::vector<std::vector<std::string>> cases = {
      {"--memory-limit-mb=99999999999999"},
      {"--port=65536"},
      {"--port", "-1"},
      {"--cache-capacity=0"},
      {"--threads=0"},
      {"--deadline-ms=5x"},
      {"--trace-out="},
      {"--bogus"}};
  for (const std::vector<std::string>& args : cases) {
    std::vector<std::string> argv = {BDDFC_SERVE_PATH};
    argv.insert(argv.end(), args.begin(), args.end());
    const pid_t pid = Spawn(argv);
    ASSERT_GT(pid, 0);
    EXPECT_EQ(WaitExit(pid, ScaledMs(5000)), 2) << args[0];
  }
  std::string out, err;
  EXPECT_EQ(RunCaptured(BDDFC_SERVE_PATH, "--memory-limit-mb=99999999999999",
                        &out, &err),
            2);
  EXPECT_NE(err.find("--memory-limit-mb"), std::string::npos) << err;
}

TEST(ServeExitCodeTest, PortTakesTheSpaceSpelling) {
  // `--port 0` used to be a usage error; it now binds an ephemeral port
  // like `--port=0`, and SIGTERM drains the daemon to exit 0.
  const pid_t pid = Spawn({BDDFC_SERVE_PATH, "--port", "0"});
  ASSERT_GT(pid, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(ScaledMs(300)));
  ASSERT_EQ(kill(pid, SIGTERM), 0);
  EXPECT_EQ(WaitExit(pid, ScaledMs(10000)), 0);
}

TEST(TraceCheckExitCodeTest, RequireTakesEitherSpellingAndRepeats) {
  const std::string trace = WriteProgram(
      "tiny_trace.json",
      "{\"traceEvents\":["
      "{\"name\":\"a\",\"ph\":\"B\",\"ts\":1,\"tid\":1},"
      "{\"name\":\"a\",\"ph\":\"E\",\"ts\":2,\"tid\":1}]}\n");
  EXPECT_EQ(RunBinary(BDDFC_TRACE_CHECK_PATH, trace + " --require a"), 0);
  EXPECT_EQ(RunBinary(BDDFC_TRACE_CHECK_PATH,
                      trace + " --require=a --require a"),
            0);
  EXPECT_EQ(RunBinary(BDDFC_TRACE_CHECK_PATH,
                      trace + " --require=a --require b"),
            1);
  ExpectUsageErrors(BDDFC_TRACE_CHECK_PATH,
                    {{trace + " --require", "--require"},
                     {trace + " --require=", "--require"},
                     {trace + " --bogus", "--bogus"},
                     {"--bogus " + trace, "--bogus"},
                     {trace + " " + trace, trace.c_str()}});
}

}  // namespace
