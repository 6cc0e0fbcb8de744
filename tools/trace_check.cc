// Validates a Chrome trace_event JSON file (the shape written by
// `bddfc --trace-out` / `bddfc_fuzz --trace-out`). CI runs it on the
// pipeline's trace artifact so a regression in the exporter (unbalanced
// spans, time going backwards, broken escaping) fails the build instead
// of producing a file chrome://tracing silently refuses to load.
//
// Usage:
//   trace_check <trace.json> [--require=SPAN_NAME]...
//
// Flags are strict (base/flags.h): --require=NAME or --require NAME, any
// number of times; a bad flag or a second path exits 2.
//
// Checks:
//   * the file is well-formed JSON: an object with a "traceEvents" array
//     whose entries carry name (string), ph ("B"/"E"), ts (number) and
//     tid (number);
//   * per tid, ts is non-decreasing in file order;
//   * per tid, B/E events balance like a bracket language, with matching
//     names (duration events in trace_event format are per-thread LIFO);
//   * each --require=NAME names at least one recorded span.
//
// Exit status: 0 = valid, 1 = invalid, 2 = usage / IO error.

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bddfc/base/flags.h"

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON parser: just enough of RFC 8259 for trace files. Numbers
// are kept as doubles; no \u surrogate pairing (the exporter never emits
// non-ASCII names).
// ---------------------------------------------------------------------------

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> fields;

  const JsonValue* Find(const char* key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  /// Parses the whole input as one value; false on any syntax error, with
  /// error() describing the failure and its byte offset.
  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out, 0)) return false;
    SkipWs();
    if (pos_ != s_.size()) return Fail("trailing data after the value");
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  static constexpr int kMaxDepth = 64;

  bool Fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(const char* word, JsonValue::Kind kind, bool b, JsonValue* out) {
    size_t n = std::strlen(word);
    if (s_.compare(pos_, n, word) != 0) return Fail("invalid literal");
    pos_ += n;
    out->kind = kind;
    out->b = b;
    return true;
  }

  bool ParseString(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return Fail("expected '\"'");
    ++pos_;
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) break;
      char esc = s_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return Fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= h - '0';
            else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
            else return Fail("bad \\u escape digit");
          }
          // Validation only: a replacement byte keeps names comparable.
          out->push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected a number");
    try {
      out->num = std::stod(s_.substr(start, pos_ - start));
    } catch (...) {
      return Fail("unparsable number");
    }
    out->kind = JsonValue::kNumber;
    return true;
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    if (pos_ >= s_.size()) return Fail("unexpected end of input");
    char c = s_[pos_];
    if (c == 'n') return Literal("null", JsonValue::kNull, false, out);
    if (c == 't') return Literal("true", JsonValue::kBool, true, out);
    if (c == 'f') return Literal("false", JsonValue::kBool, false, out);
    if (c == '"') {
      out->kind = JsonValue::kString;
      return ParseString(&out->str);
    }
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      return ParseNumber(out);
    }
    if (c == '[') {
      ++pos_;
      out->kind = JsonValue::kArray;
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        JsonValue item;
        SkipWs();
        if (!ParseValue(&item, depth + 1)) return false;
        out->items.push_back(std::move(item));
        SkipWs();
        if (pos_ >= s_.size()) return Fail("unterminated array");
        if (s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (s_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return Fail("expected ',' or ']'");
      }
    }
    if (c == '{') {
      ++pos_;
      out->kind = JsonValue::kObject;
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        SkipWs();
        std::string key;
        if (!ParseString(&key)) return false;
        SkipWs();
        if (pos_ >= s_.size() || s_[pos_] != ':') return Fail("expected ':'");
        ++pos_;
        SkipWs();
        JsonValue val;
        if (!ParseValue(&val, depth + 1)) return false;
        out->fields.emplace_back(std::move(key), std::move(val));
        SkipWs();
        if (pos_ >= s_.size()) return Fail("unterminated object");
        if (s_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (s_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return Fail("expected ',' or '}'");
      }
    }
    return Fail("unexpected character");
  }

  const std::string& s_;
  size_t pos_ = 0;
  std::string error_;
};

// ---------------------------------------------------------------------------
// Trace validation.
// ---------------------------------------------------------------------------

int Usage() {
  std::fprintf(stderr,
               "usage: trace_check <trace.json> [--require=SPAN_NAME]...\n"
               "exit codes: 0 valid, 1 invalid, 2 usage/IO error\n");
  return 2;
}

int Invalid(size_t index, const std::string& what) {
  std::fprintf(stderr, "invalid trace: event %zu: %s\n", index, what.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> required;
  bddfc::FlagSet flags("trace_check");
  flags.Strings("--require", &required);
  if (!flags.Parse(argc, argv, 1) || flags.positionals().empty()) {
    return Usage();
  }
  const char* path = flags.positionals()[0].c_str();

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open '%s'\n", path);
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  JsonValue root;
  JsonParser parser(text);
  if (!parser.Parse(&root)) {
    std::fprintf(stderr, "invalid trace: not well-formed JSON: %s\n",
                 parser.error().c_str());
    return 1;
  }
  if (root.kind != JsonValue::kObject) {
    std::fprintf(stderr, "invalid trace: top level is not an object\n");
    return 1;
  }
  const JsonValue* events = root.Find("traceEvents");
  if (events == nullptr || events->kind != JsonValue::kArray) {
    std::fprintf(stderr, "invalid trace: missing \"traceEvents\" array\n");
    return 1;
  }

  // Per-tid state: last timestamp seen and the open-span name stack.
  std::map<double, double> last_ts;
  std::map<double, std::vector<std::string>> open;
  std::map<std::string, size_t> spans_by_name;

  for (size_t i = 0; i < events->items.size(); ++i) {
    const JsonValue& e = events->items[i];
    if (e.kind != JsonValue::kObject) return Invalid(i, "not an object");
    const JsonValue* name = e.Find("name");
    const JsonValue* ph = e.Find("ph");
    const JsonValue* ts = e.Find("ts");
    const JsonValue* tid = e.Find("tid");
    if (name == nullptr || name->kind != JsonValue::kString) {
      return Invalid(i, "missing string \"name\"");
    }
    if (ph == nullptr || ph->kind != JsonValue::kString) {
      return Invalid(i, "missing string \"ph\"");
    }
    if (ts == nullptr || ts->kind != JsonValue::kNumber) {
      return Invalid(i, "missing numeric \"ts\"");
    }
    if (tid == nullptr || tid->kind != JsonValue::kNumber) {
      return Invalid(i, "missing numeric \"tid\"");
    }
    if (ph->str != "B" && ph->str != "E") {
      return Invalid(i, "ph is '" + ph->str + "', expected 'B' or 'E'");
    }

    // Monotone per-thread timestamps, in file order.
    auto [it, fresh] = last_ts.emplace(tid->num, ts->num);
    if (!fresh) {
      if (ts->num < it->second) {
        return Invalid(i, "ts goes backwards on tid " +
                              std::to_string(tid->num) + " (" +
                              std::to_string(ts->num) + " after " +
                              std::to_string(it->second) + ")");
      }
      it->second = ts->num;
    }

    // Balanced, name-matched B/E per thread.
    std::vector<std::string>& stack = open[tid->num];
    if (ph->str == "B") {
      stack.push_back(name->str);
      ++spans_by_name[name->str];
    } else if (stack.empty()) {
      return Invalid(i, "'E' for \"" + name->str + "\" with no open span");
    } else if (stack.back() != name->str) {
      return Invalid(i, "'E' for \"" + name->str + "\" but innermost open "
                        "span is \"" + stack.back() + "\"");
    } else {
      stack.pop_back();
    }
  }

  for (const auto& [tid, stack] : open) {
    if (!stack.empty()) {
      std::fprintf(stderr,
                   "invalid trace: tid %g ends with %zu unclosed span(s), "
                   "innermost \"%s\"\n",
                   tid, stack.size(), stack.back().c_str());
      return 1;
    }
  }

  int rc = 0;
  for (const std::string& want : required) {
    if (spans_by_name.find(want) == spans_by_name.end()) {
      std::fprintf(stderr, "invalid trace: no span named \"%s\"\n",
                   want.c_str());
      rc = 1;
    }
  }
  if (rc == 0) {
    std::printf("ok: %zu events, %zu distinct span names, %zu threads\n",
                events->items.size(), spans_by_name.size(), last_ts.size());
  }
  return rc;
}
