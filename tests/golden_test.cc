// Golden digests: 64-bit FNV-1a of everything a run's bytes depend on, for
// fixed inputs, at 1 and 4 threads. A digest covers the parsed instance
// (rows in order, Domain() order), ExactChaseDump (rows in order, birth
// rounds, null provenance, dedup counters), the chase result's Domain()
// order and every predicate and constant name, nulls included.
//
// The production/kNaive differential cannot see a change of row order,
// TermIds, Domain() order or null names: both engines share the parser,
// the store and ApplyRound. The parser round-trip oracle sorts the fact
// lines it prints, so it cannot see one either. These digests can. They
// were recorded from a build whose outputs are the reference; a change
// that moves one must say why.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <string_view>

#include "bddfc/chase/chase.h"
#include "bddfc/finitemodel/pipeline.h"
#include "bddfc/parser/parser.h"
#include "bddfc/testing/oracles.h"

namespace bddfc {
namespace {

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

void AppendRows(const Structure& s, std::string* out) {
  for (PredId p = 0; p < s.NumStoredPredicates(); ++p) {
    *out += "rel " + std::to_string(p) + ":";
    for (TupleRef row : s.Rows(p)) {
      *out += " (";
      for (TermId t : row) *out += std::to_string(t) + ",";
      *out += ")";
    }
    *out += "\n";
  }
}

void AppendDomainAndNames(const Structure& s, std::string* out) {
  *out += "domain:";
  for (TermId c : s.Domain()) *out += ' ' + std::to_string(c);
  *out += "\n";
  const Signature& sig = s.sig();
  for (PredId p = 0; p < sig.num_predicates(); ++p) {
    *out += "pred " + sig.PredicateName(p) + "/" +
            std::to_string(sig.arity(p)) + "\n";
  }
  for (TermId c = 0; c < sig.num_constants(); ++c) {
    *out += (sig.IsNull(c) ? "null " : "const ") + sig.ConstantName(c) + "\n";
  }
}

/// Parses `text`, chases it (32 rounds, like `bddfc chase`) on `threads`
/// workers and returns the digest of the parse and the run.
std::string ChaseDigest(const std::string& text, size_t threads) {
  Result<Program> parsed = ParseProgram(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  if (!parsed.ok()) return "parse-error";
  const Program& p = parsed.value();
  std::string s;
  AppendRows(p.instance, &s);
  s += "parsed domain:";
  for (TermId c : p.instance.Domain()) s += ' ' + std::to_string(c);
  s += "\n";
  ChaseOptions opts;
  opts.max_rounds = 32;
  opts.threads = threads;
  const ChaseResult r = RunChase(p.theory, p.instance, opts);
  s += ExactChaseDump(r);
  AppendDomainAndNames(r.structure, &s);
  return Hex(Fnv1a(s));
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// A program shaped like the benchmark's graph-mixed workload, at about
/// 2k facts: random e/f edges over 400 named nodes, two datalog joins, two
/// TGDs and a rule joining nulls back. Drawn from raw mt19937_64 output
/// (no std:: distribution, whose results differ between standard
/// libraries), so the text is the same everywhere.
std::string GraphMixedShaped() {
  std::mt19937_64 rng(20261018);
  constexpr uint64_t kNodes = 400;
  std::string text =
      "e(X, Y), f(Y, Z) -> g(X, Z).\n"
      "f(X, Y), e(Y, Z) -> h(X, Z).\n"
      "e(X, Y) -> exists W: s(Y, W).\n"
      "g(X, Y) -> exists W: t(X, W).\n"
      "s(Y, W), e(X, Y) -> u(X, W).\n";
  auto edges = [&](const char* pred, int count) {
    for (int i = 0; i < count; ++i) {
      const uint64_t a = rng() % kNodes;
      const uint64_t b = rng() % kNodes;
      text += std::string(pred) + "(v" + std::to_string(a) + ", v" +
              std::to_string(b) + ").\n";
    }
  };
  edges("e", 1200);
  edges("f", 800);
  return text;
}

struct Golden {
  const char* input;  // a file of examples/programs, or "graph-mixed"
  const char* digest;
};

TEST(GoldenDigestTest, ChaseRunsMatchTheRecordedDigests) {
  const std::string dir = BDDFC_EXAMPLES_DIR;
  const Golden kGolden[] = {
      {"example7.dlg", "27d2becfdfbd8993"},
      {"non_fc.dlg", "77e6b52b6e77bc8b"},
      {"org_chart.dlg", "61e26d5b63e24a47"},
      {"graph-mixed", "b90244f997150424"},
  };
  for (const Golden& g : kGolden) {
    const std::string name = g.input;
    const std::string text = name == "graph-mixed"
                                 ? GraphMixedShaped()
                                 : ReadFile(dir + "/" + name);
    for (size_t threads : {1, 4}) {
      EXPECT_EQ(ChaseDigest(text, threads), g.digest)
          << name << " at " << threads << " thread(s)";
    }
  }
}

/// `bddfc model`'s pipeline run for the query e(X, X) on Example 7 over an
/// `edges`-edge path.
FiniteModelResult Example7Model(int edges) {
  std::string text =
      "e(X, Y) -> exists Z: e(Y, Z).\n"
      "e(X, Y), e(X1, Y) -> r(X, X1).\n";
  for (int i = 0; i < edges; ++i) {
    text += "e(c" + std::to_string(i) + ", c" + std::to_string(i + 1) +
            ").\n";
  }
  Result<Program> parsed = ParseProgram(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Program& p = parsed.value();
  Result<ConjunctiveQuery> q =
      ParseQuery("e(X, X)", p.theory.signature_ptr().get());
  EXPECT_TRUE(q.ok());
  return ConstructFiniteCounterModel(p.theory, p.instance, q.value(),
                                     PipelineOptions{});
}

TEST(GoldenDigestTest, Example7ModelAtSixteenMatchesTheRecordedDigest) {
  // `bddfc model`'s counter-model for Example 7 over a 16-edge path.
  const FiniteModelResult r = Example7Model(16);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  std::string s;
  AppendRows(r.model, &s);
  AppendDomainAndNames(r.model, &s);
  EXPECT_EQ(Hex(Fnv1a(s)), "3099e4334b14fc89");
}

TEST(GoldenDigestTest, Example7AttemptsAndCertifyNotesMatchTheRecord) {
  // Every attempt of the pipeline and the certify phase notes of its
  // report, for Example 7 over 16- and 64-edge paths, as recorded when
  // certification still ran on a projected copy of each attempt's
  // saturation: certifying in place must give each attempt the same
  // verdict, failure text and note.
  auto render = [](const FiniteModelResult& r) {
    std::string s;
    for (const PipelineAttempt& a : r.attempts) {
      s += "depth=" + std::to_string(a.chase_depth) +
           " n=" + std::to_string(a.n) +
           " skeleton=" + std::to_string(a.skeleton_facts) +
           " quotient=" + std::to_string(a.quotient_size) +
           " certified=" + std::to_string(a.certified) +
           " failure=" + a.failure + "\n";
    }
    for (const PhaseProgress& phase : r.report.phases) {
      if (phase.phase == "certify") s += "certify: " + phase.progress + "\n";
    }
    return s;
  };
  EXPECT_EQ(render(Example7Model(16)),
            "depth=8 n=2 skeleton=80 quotient=66 certified=0 "
            "failure=not a model: rule #0 violated by e(_q96, _q112)\n"
            "depth=8 n=3 skeleton=80 quotient=81 certified=0 "
            "failure=not a model: rule #0 violated by e(_q145, _q161)\n"
            "depth=8 n=4 skeleton=80 quotient=81 certified=0 "
            "failure=not a model: rule #0 violated by e(_q209, _q225)\n"
            "depth=16 n=2 skeleton=144 quotient=70 certified=0 "
            "failure=not a model: rule #0 violated by e(_q420, _q421)\n"
            "depth=16 n=3 skeleton=144 quotient=85 certified=0 "
            "failure=not a model: rule #0 violated by e(_q488, _q489)\n"
            "depth=16 n=4 skeleton=144 quotient=100 certified=0 "
            "failure=not a model: rule #0 violated by e(_q571, _q572)\n"
            "depth=32 n=2 skeleton=272 quotient=70 certified=1 "
            "failure=\n"
            "certify: not a model: rule #0 violated by e(_q96, _q112)\n"
            "certify: not a model: rule #0 violated by e(_q145, _q161)\n"
            "certify: not a model: rule #0 violated by e(_q209, _q225)\n"
            "certify: not a model: rule #0 violated by e(_q420, _q421)\n"
            "certify: not a model: rule #0 violated by e(_q488, _q489)\n"
            "certify: not a model: rule #0 violated by e(_q571, _q572)\n"
            "certify: model with 427 facts at depth 32, n=2\n");
  EXPECT_EQ(render(Example7Model(64)),
            "depth=8 n=2 skeleton=320 quotient=258 certified=0 "
            "failure=not a model: rule #0 violated by e(_q384, _q448)\n"
            "depth=8 n=3 skeleton=320 quotient=321 certified=0 "
            "failure=not a model: rule #0 violated by e(_q577, _q641)\n"
            "depth=8 n=4 skeleton=320 quotient=321 certified=0 "
            "failure=not a model: rule #0 violated by e(_q833, _q897)\n"
            "depth=16 n=2 skeleton=576 quotient=262 certified=0 "
            "failure=not a model: rule #0 violated by e(_q1668, _q1669)\n"
            "depth=16 n=3 skeleton=576 quotient=325 certified=0 "
            "failure=not a model: rule #0 violated by e(_q1928, _q1929)\n"
            "depth=16 n=4 skeleton=576 quotient=388 certified=0 "
            "failure=not a model: rule #0 violated by e(_q2251, _q2252)\n"
            "depth=32 n=2 skeleton=1088 quotient=262 certified=1 "
            "failure=\n"
            "certify: not a model: rule #0 violated by e(_q384, _q448)\n"
            "certify: not a model: rule #0 violated by e(_q577, _q641)\n"
            "certify: not a model: rule #0 violated by e(_q833, _q897)\n"
            "certify: not a model: rule #0 violated by e(_q1668, _q1669)\n"
            "certify: not a model: rule #0 violated by e(_q1928, _q1929)\n"
            "certify: not a model: rule #0 violated by e(_q2251, _q2252)\n"
            "certify: model with 4747 facts at depth 32, n=2\n");
}

}  // namespace
}  // namespace bddfc
