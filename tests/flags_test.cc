// Unit tests of the shared strict flag parser (base/flags.h): both value
// spellings, the usage errors every tool turns into exit 2 (missing and
// empty values, signed, junk and overflowing counts, an unknown choice, a
// value given to a boolean flag, an unknown flag, an extra positional),
// range limits, seconds, and a repeatable flag.

#include "bddfc/base/flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace bddfc {
namespace {

/// argv-style view of `args`, with a program name in front.
struct Argv {
  explicit Argv(std::vector<std::string> args) : strings(std::move(args)) {
    strings.insert(strings.begin(), "tool");
    for (std::string& s : strings) ptrs.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }

  std::vector<std::string> strings;
  std::vector<char*> ptrs;
};

/// A flag set with one flag of each kind, parsing `args`.
struct Parsed {
  explicit Parsed(std::vector<std::string> args, size_t max_positionals = 1) {
    flags.Count("--runs", &runs);
    flags.Count("--port", &port, 1, 65535);
    flags.Seconds("--time-budget", &seconds);
    flags.Real("--deadline-ms", &real);
    flags.String("--out", &out);
    flags.Strings("--require", &required);
    flags.Choice("--paranoia", &choice, {"off", "cheap", "full"});
    flags.Bool("--no-shrink", &no_shrink);
    Argv a(std::move(args));
    ok = flags.Parse(a.argc(), a.argv(), max_positionals);
  }

  FlagSet flags{"tool"};
  uint64_t runs = 0;
  uint16_t port = 0;
  double seconds = 0;
  double real = 0;
  std::string out;
  std::vector<std::string> required;
  std::string choice;
  bool no_shrink = false;
  bool ok = false;
};

TEST(FlagSetTest, EqualsAndSpaceSpellingsAreEquivalent) {
  Parsed eq({"--runs=5", "--out=o.json", "--paranoia=cheap"});
  Parsed sp({"--runs", "5", "--out", "o.json", "--paranoia", "cheap"});
  for (const Parsed* p : {&eq, &sp}) {
    ASSERT_TRUE(p->ok);
    EXPECT_EQ(p->runs, 5u);
    EXPECT_EQ(p->out, "o.json");
    EXPECT_EQ(p->choice, "cheap");
    EXPECT_TRUE(p->flags.positionals().empty());
  }
}

TEST(FlagSetTest, MissingAndEmptyValuesAreErrors) {
  EXPECT_FALSE(Parsed({"--runs"}).ok);            // trailing, no value
  EXPECT_FALSE(Parsed({"--out", "--runs=1"}).ok);  // next argument is a flag
  EXPECT_FALSE(Parsed({"--runs="}).ok);
  EXPECT_FALSE(Parsed({"--out="}).ok);
  EXPECT_FALSE(Parsed({"--require="}).ok);
}

TEST(FlagSetTest, CountsRejectSignsJunkAndOverflow) {
  EXPECT_FALSE(Parsed({"--runs=+1"}).ok);
  EXPECT_FALSE(Parsed({"--runs=-1"}).ok);
  EXPECT_FALSE(Parsed({"--runs", "-1"}).ok);
  EXPECT_FALSE(Parsed({"--runs=1x"}).ok);
  EXPECT_FALSE(Parsed({"--runs=abc"}).ok);
  EXPECT_FALSE(Parsed({"--runs=18446744073709551616"}).ok);
  Parsed max({"--runs=18446744073709551615"});
  ASSERT_TRUE(max.ok);
  EXPECT_EQ(max.runs, UINT64_MAX);
}

TEST(FlagSetTest, CountsHonorTheirRange) {
  EXPECT_FALSE(Parsed({"--port=0"}).ok);      // below the minimum
  EXPECT_FALSE(Parsed({"--port=65536"}).ok);  // above the maximum
  Parsed top({"--port=65535"});
  ASSERT_TRUE(top.ok);
  EXPECT_EQ(top.port, 65535u);
}

TEST(FlagSetTest, SecondsAndRealsParseDecimals) {
  Parsed s({"--time-budget=2.5s"});
  ASSERT_TRUE(s.ok);
  EXPECT_DOUBLE_EQ(s.seconds, 2.5);
  Parsed plain({"--time-budget", "120"});
  ASSERT_TRUE(plain.ok);
  EXPECT_DOUBLE_EQ(plain.seconds, 120.0);
  Parsed r({"--deadline-ms=0.5"});
  ASSERT_TRUE(r.ok);
  EXPECT_DOUBLE_EQ(r.real, 0.5);
  EXPECT_FALSE(Parsed({"--time-budget=s"}).ok);
  EXPECT_FALSE(Parsed({"--time-budget=2.5x"}).ok);
  EXPECT_FALSE(Parsed({"--deadline-ms=-5"}).ok);
  EXPECT_FALSE(Parsed({"--deadline-ms=inf"}).ok);
  EXPECT_FALSE(Parsed({"--deadline-ms=nan"}).ok);
  EXPECT_FALSE(Parsed({"--deadline-ms=1e999"}).ok);
}

TEST(FlagSetTest, BooleanFlagsTakeNoValue) {
  Parsed set({"--no-shrink"});
  ASSERT_TRUE(set.ok);
  EXPECT_TRUE(set.no_shrink);
  EXPECT_FALSE(Parsed({"--no-shrink=1"}).ok);
  // A following argument is a positional, never the switch's value.
  Parsed next({"--no-shrink", "file"});
  ASSERT_TRUE(next.ok);
  EXPECT_EQ(next.flags.positionals(), std::vector<std::string>{"file"});
}

TEST(FlagSetTest, UnknownChoicesAndFlagsAreErrors) {
  EXPECT_FALSE(Parsed({"--paranoia=bogus"}).ok);
  EXPECT_FALSE(Parsed({"--bogus"}).ok);
  EXPECT_FALSE(Parsed({"--bogus=1"}).ok);
  EXPECT_FALSE(Parsed({"-x"}).ok);
}

TEST(FlagSetTest, RepeatedStringsFlagCollectsEveryValue) {
  Parsed p({"--require=a", "--require", "b", "--require=c"});
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.required, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(FlagSetTest, PositionalsAreCountedAndCapped) {
  Parsed one({"trace.json", "--require=x"});
  ASSERT_TRUE(one.ok);
  EXPECT_EQ(one.flags.positionals(), std::vector<std::string>{"trace.json"});
  EXPECT_FALSE(Parsed({"a", "b"}).ok);
  EXPECT_FALSE(Parsed({"a"}, /*max_positionals=*/0).ok);
}

TEST(FlagSetTest, ParseUnsignedIsDigitsOnly) {
  uint64_t v = 7;
  EXPECT_TRUE(ParseUnsigned("42", &v));
  EXPECT_EQ(v, 42u);
  for (const char* bad : {"", "+1", "-1", " 1", "1 ", "1x", "0x10",
                          "18446744073709551616"}) {
    EXPECT_FALSE(ParseUnsigned(bad, &v)) << "'" << bad << "'";
  }
  EXPECT_EQ(v, 42u);  // untouched on failure
}

}  // namespace
}  // namespace bddfc
