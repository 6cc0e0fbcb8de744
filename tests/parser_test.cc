// Tests for the Datalog± text parser.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bddfc/base/faults.h"
#include "bddfc/parser/parser.h"
#include "bddfc/parser/printer.h"
#include "bddfc/workload/paper_examples.h"

namespace bddfc {
namespace {

TEST(ParserTest, ParsesFactsRulesAndQueries) {
  auto r = ParseProgram(R"(
    % a program
    e(a, b).
    e(X, Y) -> exists Z: e(Y, Z).
    e(X, Y), e(Y, Z) -> e(X, Z).
    ?- e(X, X).
  )");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Program& p = r.value();
  EXPECT_EQ(p.instance.NumFacts(), 1u);
  EXPECT_EQ(p.theory.size(), 2u);
  ASSERT_EQ(p.queries.size(), 1u);
  EXPECT_EQ(p.queries[0].atoms.size(), 1u);
  EXPECT_TRUE(p.theory.rules()[0].IsExistential());
  EXPECT_TRUE(p.theory.rules()[1].IsDatalog());
}

TEST(ParserTest, ImplicitExistentialsWithoutKeyword) {
  auto r = ParseProgram("e(X, Y) -> e(Y, Z).");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Rule& rule = r.value().theory.rules()[0];
  EXPECT_TRUE(rule.IsExistential());
  EXPECT_EQ(rule.ExistentialVariables().size(), 1u);
}

TEST(ParserTest, MultiHeadRule) {
  auto r = ParseProgram("p(X) -> q(X, Y), s(Y).");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Rule& rule = r.value().theory.rules()[0];
  EXPECT_EQ(rule.head.size(), 2u);
  EXPECT_EQ(rule.ExistentialVariables().size(), 1u);
}

TEST(ParserTest, ZeroAryAtoms) {
  auto r = ParseProgram("p(X) -> goal. p(a).");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().theory.rules()[0].head[0].args.size(), 0u);
}

TEST(ParserTest, VariablesScopePerStatement) {
  auto r = ParseProgram(R"(
    p(X) -> q(X).
    q(X) -> p(X).
  )");
  ASSERT_TRUE(r.ok());
  // Each statement's X gets a fresh id, so the rules don't share variables.
  TermId x0 = r.value().theory.rules()[0].body[0].args[0];
  TermId x1 = r.value().theory.rules()[1].body[0].args[0];
  EXPECT_NE(x0, x1);
}

TEST(ParserTest, ArityMismatchIsRejected) {
  auto r = ParseProgram("e(a, b). e(a).");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
}

TEST(ParserTest, NonGroundFactIsRejected) {
  auto r = ParseProgram("e(a, X).");
  EXPECT_FALSE(r.ok());
}

TEST(ParserTest, ExistentialDeclaredInBodyIsRejected) {
  auto r = ParseProgram("e(X, Y) -> exists Y: e(X, Y).");
  EXPECT_FALSE(r.ok());
}

TEST(ParserTest, SyntaxErrorsCarryLineInfo) {
  auto r = ParseProgram("e(a, b)\ne(b, c).");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line"), std::string::npos);
}

TEST(ParserTest, CommentsAndWhitespaceIgnored) {
  auto r = ParseProgram(R"(
    % comment with -> arrows and (parens
    # hash comment
    e(a, b).   % trailing
  )");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().instance.NumFacts(), 1u);
}

TEST(ParserTest, ParseQueryHelper) {
  Signature sig;
  auto q = ParseQuery("e(X, Y), e(Y, X)", &sig);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q.value().atoms.size(), 2u);
  EXPECT_EQ(q.value().NumVariables(), 2);
}

TEST(ParserTest, ParseQueryRequiresEndOfInput) {
  // Everything after the atom list used to be dropped silently, so a
  // missing comma answered a different query.
  const std::pair<const char*, const char*> bad[] = {
      {"e(X, Y) f(Y)", "line 1: expected end of query, got 'f'"},
      {"e(X, Y) -> f(Y)", "line 1: expected end of query, got '->'"},
      {"e(X, Y) ?- z", "line 1: expected end of query, got '?-'"},
      {"e(X, Y).\nf(Y)", "line 2: expected end of query, got 'f'"},
      {"e(X, Y). .", "line 1: expected end of query, got '.'"},
  };
  for (const auto& [text, message] : bad) {
    Signature sig;
    auto q = ParseQuery(text, &sig);
    ASSERT_FALSE(q.ok()) << text;
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(q.status().message(), message);
  }
  for (const char* text : {"e(X, Y)", "e(X, Y).", " e(X, Y) . \n"}) {
    Signature sig;
    auto q = ParseQuery(text, &sig);
    ASSERT_TRUE(q.ok()) << text << ": " << q.status().ToString();
    EXPECT_EQ(q.value().atoms.size(), 1u);
  }
}

TEST(ParserTest, ReadOnlyParseGivesQueryLocalIdsInFirstOccurrenceOrder) {
  auto sig = std::make_shared<Signature>();
  ASSERT_TRUE(ParseProgram("e(a, b).", sig).ok());
  const int preds = sig->num_predicates();
  const int consts = sig->num_constants();

  auto q = ParseQuery("p(zz), e(a, yy), q(zz, X), p(yy)", std::as_const(*sig));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(sig->num_predicates(), preds);
  EXPECT_EQ(sig->num_constants(), consts);
  const std::vector<Atom>& atoms = q.value().atoms;
  ASSERT_EQ(atoms.size(), 4u);
  // p and q follow e; zz and yy follow a and b, in the order they occur.
  const PredId p = preds, qq = preds + 1;
  const TermId zz = consts, yy = consts + 1;
  const TermId a = sig->FindConstant("a").value();
  EXPECT_EQ(atoms[0], Atom(p, {zz}));
  EXPECT_EQ(atoms[1], Atom(sig->FindPredicate("e").value(), {a, yy}));
  EXPECT_EQ(atoms[2], Atom(qq, {zz, MakeVar(0)}));
  EXPECT_EQ(atoms[3], Atom(p, {yy}));

  // The interning parse gives the same query and interns the local names
  // with the ids the read-only parse gave them.
  auto interned = ParseQuery("p(zz), e(a, yy), q(zz, X), p(yy)", sig.get());
  ASSERT_TRUE(interned.ok());
  EXPECT_EQ(interned.value().atoms, atoms);
  EXPECT_EQ(sig->FindPredicate("p").value(), p);
  EXPECT_EQ(sig->FindPredicate("q").value(), qq);
  EXPECT_EQ(sig->FindConstant("zz").value(), zz);
  EXPECT_EQ(sig->FindConstant("yy").value(), yy);
}

TEST(ParserTest, ReadOnlyParseFailsWithTheInterningParsesStatus) {
  // Every error of the interning parse, on the read-only parse: the
  // trailing-input cases, an arity conflict with a known predicate (also
  // after a query-local name) and one between two uses of an unknown one.
  const std::pair<const char*, const char*> bad[] = {
      {"e(X, Y) f(Y)",
       "InvalidArgument: line 1: expected end of query, got 'f'"},
      {"e(X, Y) -> f(Y)",
       "InvalidArgument: line 1: expected end of query, got '->'"},
      {"e(X, Y) ?- z",
       "InvalidArgument: line 1: expected end of query, got '?-'"},
      {"e(X, Y).\nf(Y)",
       "InvalidArgument: line 2: expected end of query, got 'f'"},
      {"e(X, Y). .", "InvalidArgument: line 1: expected end of query, got '.'"},
      {"e(a)", "AlreadyExists: predicate 'e' redeclared with arity 1 (was 2)"},
      {"p(zz), e(a)",
       "AlreadyExists: predicate 'e' redeclared with arity 1 (was 2)"},
      {"p(a), p(a, b)",
       "AlreadyExists: predicate 'p' redeclared with arity 2 (was 1)"},
  };
  for (const auto& [text, status] : bad) {
    auto sig = std::make_shared<Signature>();
    ASSERT_TRUE(ParseProgram("e(a, b).", sig).ok());
    auto read_only = ParseQuery(text, std::as_const(*sig));
    ASSERT_FALSE(read_only.ok()) << text;
    EXPECT_EQ(read_only.status().ToString(), status) << text;
    auto interning = ParseQuery(text, sig.get());
    ASSERT_FALSE(interning.ok()) << text;
    EXPECT_EQ(interning.status().ToString(), status) << text;
  }
}

TEST(ParserTest, FailedParseQueryInternsNothing) {
  // `p` and `zz` come before the error; neither may stay interned.
  auto sig = std::make_shared<Signature>();
  ASSERT_TRUE(ParseProgram("e(a, b).", sig).ok());
  const int preds = sig->num_predicates();
  const int consts = sig->num_constants();
  for (const char* text : {"p(zz), e(a)", "p(zz) q(a)", "p(zz), e(a, @)"}) {
    ASSERT_FALSE(ParseQuery(text, sig.get()).ok()) << text;
    EXPECT_EQ(sig->num_predicates(), preds) << text;
    EXPECT_EQ(sig->num_constants(), consts) << text;
    EXPECT_FALSE(sig->FindPredicate("p").ok()) << text;
    EXPECT_FALSE(sig->FindConstant("zz").ok()) << text;
  }
}

TEST(ParserTest, LexicalErrorAnywhereWinsOverAnEarlierParseError) {
  // The parse stops at line 1, but the reported error is the one a lexer
  // reading the whole input first would find.
  auto r = ParseProgram("e(a b).\ne(b, c).\ne(c, @).");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "line 3: unexpected character '@'");
  auto only_parse = ParseProgram("e(a b).\ne(b, c).");
  ASSERT_FALSE(only_parse.ok());
  EXPECT_EQ(only_parse.status().message(),
            "line 1: expected ',' or ')', got 'b'");
}

TEST(ParserTest, FactsKeepInputOrderTermIdsAndDomain) {
  // Interleaved predicates, duplicate facts, quoted and escaped names and
  // a rule between facts. Constants take ids in text order (the rule's
  // `k` included); rows keep input order per predicate, with repeats
  // dropped; Domain() lists fact constants in first-appearance order.
  auto r = ParseProgram(R"(
    e(b, a).
    f("Big", a).
    e(b, a).
    e(X, k) -> f(X, X).
    g(c).
    e("q\"x", b), f(a, "Big").
    f("Big", a).
    e(d, "q\"x").
  )");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Structure& s = r.value().instance;
  const Signature& sig = s.sig();
  const std::vector<std::string> names = {"b", "a", "Big", "k",
                                          "c", "q\"x", "d"};
  ASSERT_EQ(sig.num_constants(), static_cast<int>(names.size()));
  for (size_t c = 0; c < names.size(); ++c) {
    EXPECT_EQ(sig.ConstantName(static_cast<TermId>(c)), names[c]);
  }
  EXPECT_EQ(sig.PredicateName(0), "e");
  EXPECT_EQ(sig.PredicateName(1), "f");
  EXPECT_EQ(sig.PredicateName(2), "g");
  auto rows = [&](PredId p) {
    std::vector<std::vector<TermId>> out;
    for (TupleRef row : s.Rows(p)) out.push_back(row);
    return out;
  };
  using Rows = std::vector<std::vector<TermId>>;
  EXPECT_EQ(rows(0), (Rows{{0, 1}, {5, 0}, {6, 5}}));
  EXPECT_EQ(rows(1), (Rows{{2, 1}, {1, 2}}));
  EXPECT_EQ(rows(2), (Rows{{4}}));
  EXPECT_EQ(s.NumFacts(), 6u);
  EXPECT_EQ(s.Domain(), (std::vector<TermId>{0, 1, 2, 4, 5, 6}));
}

TEST(ParserTest, RoundTripThroughToString) {
  auto r = ParseProgram("e(X, Y), u(Y) -> exists Z: e(Y, Z).");
  ASSERT_TRUE(r.ok());
  std::string printed = r.value().theory.ToString();
  // Re-parse the printed form; variable names ?0 etc. are not valid input,
  // so just check shape here.
  EXPECT_NE(printed.find("->"), std::string::npos);
  EXPECT_NE(printed.find("exists"), std::string::npos);
}

TEST(ParserTest, SharedSignatureAcrossPrograms) {
  auto sig = std::make_shared<Signature>();
  auto r1 = ParseProgram("e(a, b).", sig);
  ASSERT_TRUE(r1.ok());
  auto r2 = ParseProgram("e(b, c).", sig);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(sig->num_predicates(), 1);
  EXPECT_EQ(sig->num_constants(), 3);
}

TEST(ParserTest, FailedParseLeavesTheSignatureUnchanged) {
  // The statements before the error name two predicates and three
  // constants; none of them may stay interned in the caller's signature,
  // and a later parse on it must get the ids a signature that never saw
  // the failed text gives.
  auto sig = std::make_shared<Signature>();
  auto fresh = std::make_shared<Signature>();
  ASSERT_TRUE(ParseProgram("p(z).", sig).ok());
  ASSERT_TRUE(ParseProgram("p(z).", fresh).ok());
  auto failed = ParseProgram("e(a, b).\nf(c, X).", sig);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().ToString(),
            "InvalidArgument: fact is not ground: f(c, ?0)");
  EXPECT_EQ(sig->num_predicates(), fresh->num_predicates());
  EXPECT_EQ(sig->num_constants(), fresh->num_constants());
  EXPECT_FALSE(sig->FindPredicate("e").ok());
  EXPECT_FALSE(sig->FindConstant("a").ok());

  const char* text = "f(c, d).\ne(a, b).";
  ASSERT_TRUE(ParseProgram(text, sig).ok());
  ASSERT_TRUE(ParseProgram(text, fresh).ok());
  for (const char* pred : {"p", "e", "f"}) {
    EXPECT_EQ(sig->FindPredicate(pred).value(),
              fresh->FindPredicate(pred).value())
        << pred;
  }
  for (const char* c : {"z", "a", "b", "c", "d"}) {
    EXPECT_EQ(sig->FindConstant(c).value(), fresh->FindConstant(c).value())
        << c;
  }
}

// Reparse-and-reprint: on already-canonical output this must be the
// identity, which is what the fuzzer's parser-roundtrip oracle checks.
std::string Reprint(const std::string& text) {
  auto r = ParseProgram(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString() << "\n" << text;
  if (!r.ok()) return "";
  const Program& p = r.value();
  return ToProgramText(p.theory, &p.instance, &p.queries);
}

TEST(PrinterRoundTripTest, QuotedNamesSurviveReparse) {
  auto r = ParseProgram(R"(e("Foo", b). e("exists", a). "Upper"(a, "with space").)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::string printed = ToProgramText(r.value().theory, &r.value().instance,
                                      &r.value().queries);
  // Names that would not lex as plain identifiers stay quoted...
  EXPECT_NE(printed.find("\"Foo\""), std::string::npos);
  EXPECT_NE(printed.find("\"exists\""), std::string::npos);
  EXPECT_NE(printed.find("\"with space\""), std::string::npos);
  // ...and plain ones stay bare.
  EXPECT_EQ(printed.find("\"a\""), std::string::npos);
  EXPECT_EQ(Reprint(printed), printed);
}

TEST(PrinterRoundTripTest, EscapesSurviveReparse) {
  auto r = ParseProgram(R"(p("say \"hi\"", "back\\slash").)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Signature& sig = r.value().instance.sig();
  EXPECT_EQ(sig.num_constants(), 2);
  EXPECT_EQ(sig.ConstantName(0), "say \"hi\"");
  EXPECT_EQ(sig.ConstantName(1), "back\\slash");
  std::string printed = ToProgramText(r.value().theory, &r.value().instance,
                                      &r.value().queries);
  EXPECT_EQ(Reprint(printed), printed);
}

TEST(PrinterRoundTripTest, EmptyQuotedNameIsRejected) {
  EXPECT_FALSE(ParseProgram(R"(p("").)").ok());
  EXPECT_FALSE(ParseProgram(R"(""(a).)").ok());
}

TEST(PrinterRoundTripTest, UnterminatedQuoteIsRejected) {
  EXPECT_FALSE(ParseProgram("p(\"oops).\n").ok());
}

TEST(PrinterRoundTripTest, FactOrderIsCanonical) {
  // The same facts in two different source orders print identically, so a
  // printed program is a canonical form independent of internal fact ids.
  std::string a = Reprint("z(c). a(b). m(b, c). ?- a(V0).");
  std::string b = Reprint("m(b, c). z(c). a(b). ?- a(V0).");
  EXPECT_EQ(a, b);
  EXPECT_LT(a.find("a(b)"), a.find("m(b, c)"));
  EXPECT_LT(a.find("m(b, c)"), a.find("z(c)"));
}

TEST(PrinterRoundTripTest, PrintParsePrintIsAFixpoint) {
  const char* programs[] = {
      "e(a, b). e(X, Y) -> exists Z: e(Y, Z). ?- e(X, X).",
      "p(X) -> q(X, Y), s(Y). p(a).",
      R"(e("V0", "with space"). "Upper"(a, b). ?- e(V0, V1).)",
      "t(X, Y), t(Y, Z) -> t(X, Z). t(a, b). t(b, c).",
  };
  for (const char* text : programs) {
    std::string once = Reprint(text);
    EXPECT_EQ(Reprint(once), once) << text;
  }
}

TEST(PrinterRoundTripTest, CorpusFilesAreDoubleRoundTripStable) {
  // Every checked-in fuzz reproducer must survive a *double* round-trip:
  // print(parse(text)) is canonical, so a second parse-print is the
  // identity on it. A single round-trip can mask a printer defect that a
  // drifting canonical form would re-expose on replay.
  namespace fs = std::filesystem;
  size_t checked = 0;
  for (const auto& entry : fs::directory_iterator(BDDFC_CORPUS_DIR)) {
    if (entry.path().extension() != ".dlg") continue;
    SCOPED_TRACE(entry.path().filename().string());
    std::ifstream in(entry.path());
    ASSERT_TRUE(in.good());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::string once = Reprint(text);
    ASSERT_FALSE(once.empty());
    EXPECT_EQ(Reprint(once), once);
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(PrinterRoundTripTest, PaperExamplesAreDoubleRoundTripStable) {
  struct Case {
    const char* name;
    Program p;
  };
  Case cases[] = {{"Example1", Example1()},
                  {"RemarkThree", RemarkThreeTheory()},
                  {"Example7", Example7()},
                  {"Example9", Example9()},
                  {"Section54", Section54()},
                  {"Section55", Section55()},
                  {"GuardedSample", GuardedSample()}};
  for (Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::string once =
        ToProgramText(c.p.theory, &c.p.instance, &c.p.queries);
    EXPECT_EQ(Reprint(once), once);
  }
}

TEST(ParserFaultTest, ChaosSiteIsScopedToTheCallersRegistry) {
  // Serving regression (DESIGN.md §2.15): the parser's chaos site routes
  // through the registry the caller passes, so two sessions parsing
  // concurrently under disjoint fault plans never see each other's
  // chaos. Thread A's plan kills every parse; thread B parses clean.
  constexpr int kIters = 200;
  FaultRegistry reg_a;
  reg_a.Arm({.site = faults::kParserParse,
             .schedule = FaultSchedule::kAfterN,
             .n = 0,
             .action = ""});
  FaultRegistry reg_b;  // enabled by arming an unrelated site only
  reg_b.Arm({.site = faults::kChaseRound,
             .schedule = FaultSchedule::kAfterN,
             .n = 0,
             .action = ""});

  std::atomic<int> a_ok{0}, b_failed{0};
  std::thread chaos([&] {
    for (int i = 0; i < kIters; ++i) {
      auto r = ParseProgram("e(a, b).", nullptr, &reg_a);
      if (r.ok() || r.status().code() != StatusCode::kInternal) {
        a_ok.fetch_add(1);
      }
    }
  });
  std::thread clean([&] {
    for (int i = 0; i < kIters; ++i) {
      if (!ParseProgram("e(a, b).", nullptr, &reg_b).ok()) {
        b_failed.fetch_add(1);
      }
    }
  });
  chaos.join();
  clean.join();

  EXPECT_EQ(a_ok.load(), 0) << "armed parser fault failed to fire";
  EXPECT_EQ(b_failed.load(), 0) << "another session's fault plan leaked in";
  EXPECT_EQ(reg_a.FireCount(faults::kParserParse), uint64_t{kIters});
  EXPECT_EQ(reg_b.FireCount(faults::kParserParse), 0u);
  EXPECT_EQ(reg_b.HitCount(faults::kParserParse), uint64_t{kIters});
}

}  // namespace
}  // namespace bddfc
