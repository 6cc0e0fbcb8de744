#include "bddfc/base/flags.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace bddfc {
namespace {

std::string Quoted(std::string_view value) {
  return '\'' + std::string(value) + '\'';
}

/// Parses a finite number in [0, max] into *out; returns the problem, or
/// "" on success. from_chars takes no '+' or whitespace, and a leading '-'
/// is refused so that "-0" is not read as zero.
std::string RealProblem(std::string_view text, double max, double* out) {
  double v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || text.front() == '-' ||
      ec == std::errc::invalid_argument || ptr != end || std::isnan(v)) {
    return Quoted(text) + " is not a non-negative number";
  }
  if (ec == std::errc::result_out_of_range || v > max) {
    char bound[32];
    std::snprintf(bound, sizeof(bound), "%g", max);
    return Quoted(text) + " is out of range [0, " + bound + "]";
  }
  *out = v;
  return "";
}

}  // namespace

bool ParseUnsigned(std::string_view text, uint64_t* out) {
  if (text.empty() || text.front() < '0' || text.front() > '9') return false;
  uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end) return false;
  *out = v;
  return true;
}

std::string FlagSet::CountProblem(std::string_view value, uint64_t min,
                                  uint64_t max, uint64_t* out) {
  if (ParseUnsigned(value, out)) {
    if (*out >= min && *out <= max) return "";
  } else if (value.find_first_not_of("0123456789") != std::string_view::npos) {
    return Quoted(value) + " is not a decimal count";
  }  // else all digits yet unparsed: the count overflows 64 bits
  return Quoted(value) + " is out of range [" + std::to_string(min) + ", " +
         std::to_string(max) + "]";
}

void FlagSet::Real(const char* name, double* out, double max) {
  Add(name, [out, max](std::string_view value) {
    return RealProblem(value, max, out);
  });
}

void FlagSet::Seconds(const char* name, double* out) {
  Add(name, [out](std::string_view value) {
    if (value.size() > 1 && value.back() == 's') value.remove_suffix(1);
    return RealProblem(value, std::numeric_limits<double>::max(), out);
  });
}

void FlagSet::String(const char* name, std::string* out) {
  Add(name, [out](std::string_view value) {
    *out = value;
    return std::string();
  });
}

void FlagSet::Strings(const char* name, std::vector<std::string>* out) {
  Add(name, [out](std::string_view value) {
    out->emplace_back(value);
    return std::string();
  });
}

void FlagSet::Choice(const char* name, std::string* out,
                     std::vector<std::string> choices) {
  Add(name, [out, choices = std::move(choices)](std::string_view value) {
    std::string have;
    for (const std::string& c : choices) {
      if (value == c) {
        *out = c;
        return std::string();
      }
      have += (have.empty() ? "" : ", ") + c;
    }
    return "unknown value " + Quoted(value) + " (have: " + have + ")";
  });
}

bool FlagSet::Fail(const std::string& line) const {
  std::fprintf(stderr, "%s: %s\n", tool_.c_str(), line.c_str());
  return false;
}

bool FlagSet::Parse(int argc, char** argv, size_t max_positionals) {
  positionals_.clear();
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.size() < 2 || arg.front() != '-') {
      if (positionals_.size() == max_positionals) {
        return Fail("unexpected argument " + Quoted(arg));
      }
      positionals_.emplace_back(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string name(arg.substr(0, eq));
    const Flag* flag = nullptr;
    for (const Flag& f : flags_) {
      if (f.name == name) flag = &f;
    }
    if (flag == nullptr) return Fail("unknown flag " + Quoted(name));
    if (flag->on != nullptr) {
      if (eq != std::string_view::npos) return Fail(name + ": takes no value");
      *flag->on = true;
      continue;
    }
    std::string_view value;
    if (eq != std::string_view::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc &&
               std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      value = argv[++i];
    } else {
      return Fail(name + ": needs a value");
    }
    if (value.empty()) return Fail(name + ": empty value");
    if (const std::string problem = flag->set(value); !problem.empty()) {
      return Fail(name + ": " + problem);
    }
  }
  return true;
}

}  // namespace bddfc
