// One strict command-line flag parser shared by the five tools (bddfc,
// bddfc_fuzz, bddfc_loadgen, bddfc_serve, trace_check).
//
// A tool declares its flags, each bound to a typed destination, and calls
// Parse. A valued flag takes `--name=value` or `--name value`; a boolean
// flag takes none; other arguments are positionals. Any malformed flag or
// value fails Parse with one stderr line naming it, so a bad flag never
// runs as a silently different job. A repeated flag keeps its last value;
// Strings collects every occurrence.

#ifndef BDDFC_BASE_FLAGS_H_
#define BDDFC_BASE_FLAGS_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace bddfc {

/// Parses a decimal count: digits only (no sign, no whitespace), at most
/// UINT64_MAX. False, leaving *out alone, on anything else.
bool ParseUnsigned(std::string_view text, uint64_t* out);

/// A tool's flag declarations and the positionals of its Parse.
class FlagSet {
 public:
  /// `tool` prefixes every error line ("bddfc_fuzz: --runs: ...").
  explicit FlagSet(std::string tool) : tool_(std::move(tool)) {}

  /// A switch: present = true.
  void Bool(const char* name, bool* out) { flags_.push_back({name, {}, out}); }
  /// A decimal count (ParseUnsigned) in [min, max].
  template <typename T>
  void Count(const char* name, T* out, uint64_t min = 0,
             uint64_t max = std::numeric_limits<T>::max()) {
    Add(name, [=](std::string_view value) {
      uint64_t n = 0;
      std::string problem = CountProblem(value, min, max, &n);
      if (problem.empty()) *out = static_cast<T>(n);
      return problem;
    });
  }
  /// A finite decimal number in [0, max] ("5000", "0.5", "1e3").
  void Real(const char* name, double* out,
            double max = std::numeric_limits<double>::max());
  /// Seconds: a Real with an optional trailing 's' ("120s", "2.5").
  void Seconds(const char* name, double* out);
  /// A non-empty string; Strings collects one per occurrence.
  void String(const char* name, std::string* out);
  void Strings(const char* name, std::vector<std::string>* out);
  /// One of `choices`, stored as spelled.
  void Choice(const char* name, std::string* out,
              std::vector<std::string> choices);

  /// Parses argv[1, argc) with at most `max_positionals` positionals (an
  /// argument starting with '-' is always a flag). Fails on an unknown
  /// flag, a missing value (none follows, or the next argument starts with
  /// "--"), an empty value, a value for a boolean flag, or a value its
  /// flag rejects; prints one line naming the first bad argument.
  bool Parse(int argc, char** argv, size_t max_positionals = 0);
  const std::vector<std::string>& positionals() const { return positionals_; }

 private:
  /// Stores one value; returns the problem with it, or "" once stored.
  using Setter = std::function<std::string(std::string_view value)>;
  struct Flag {
    std::string name;
    Setter set;          ///< valued flags
    bool* on = nullptr;  ///< boolean flags
  };

  static std::string CountProblem(std::string_view value, uint64_t min,
                                  uint64_t max, uint64_t* out);
  void Add(const char* name, Setter set) {
    flags_.push_back({name, std::move(set)});
  }
  /// Prints "<tool>: <line>" on stderr; returns false.
  bool Fail(const std::string& line) const;

  std::string tool_;
  std::vector<Flag> flags_;
  std::vector<std::string> positionals_;
};

}  // namespace bddfc

#endif  // BDDFC_BASE_FLAGS_H_
