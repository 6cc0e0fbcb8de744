#include "common.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <unordered_map>

namespace perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

void MeasurePeakRss(const Options& o, Report& report) {
  double kib = 0;
  char exe[4096] = {};
  if (readlink("/proc/self/exe", exe, sizeof(exe) - 1) > 0) {
    const std::string cmd = std::string("'") + exe + "' --workload " +
                            o.workload + " --seed " + std::to_string(o.seed) +
                            " --scale " + (o.tiny ? "tiny" : "full") +
                            " --memory-probe";
    if (FILE* child = popen(cmd.c_str(), "r")) {
      if (std::fscanf(child, "%lf", &kib) != 1) kib = 0;
      if (pclose(child) != 0) kib = 0;
    }
  }
  if (kib <= 0) report.Fail("memory probe process failed");
  report.Set("peak_rss_mb", kib / 1024.0);
}

double PeakRssOfThisProcessKib() {
  // VmHWM belongs to the address space; ru_maxrss would also count the
  // parent's pages that a spawned child held before exec.
  std::ifstream status("/proc/self/status");
  std::string key;
  double kib = 0;
  while (status >> key) {
    if (key == "VmHWM:") {
      status >> kib;
      break;
    }
  }
  return kib;
}

double CurrentRssBytes() {
  std::ifstream statm("/proc/self/statm");
  double size_pages = 0, resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<double>(sysconf(_SC_PAGESIZE));
}

uint64_t FactDigest(const bddfc::Structure& s, bool drop_one) {
  const bddfc::Signature& sig = s.sig();
  std::vector<std::string> facts;
  facts.reserve(s.NumFacts());
  for (bddfc::PredId p = 0; p < s.NumStoredPredicates(); ++p) {
    for (const std::vector<bddfc::TermId>& row : s.Rows(p)) {
      std::string f = sig.PredicateName(p) + "(";
      for (size_t i = 0; i < row.size(); ++i) {
        if (i != 0) f += ",";
        f += sig.ConstantName(row[i]);
      }
      facts.push_back(f + ")");
    }
  }
  std::sort(facts.begin(), facts.end());
  if (drop_one && !facts.empty()) facts.erase(facts.begin());
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& f : facts) {
    for (char c : f) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
    h ^= '\n';
    h *= 0x100000001b3ULL;
  }
  return h;
}

double SpanTotals::Ms(const std::string& name) const {
  auto it = ms.find(name);
  return it == ms.end() ? 0 : it->second;
}

size_t SpanTotals::Count(const std::string& name) const {
  auto it = count.find(name);
  return it == count.end() ? 0 : it->second;
}

SpanTotals SummarizeTrace(const std::string& json) {
  struct Span {
    std::string name;
    uint64_t parent = 0;
    long long begin = -1;
    long long end = -1;
  };
  std::unordered_map<uint64_t, Span> spans;
  auto number_after = [&](const char* key, size_t from, size_t* at) {
    const size_t pos = json.find(key, from);
    if (pos == std::string::npos) return static_cast<long long>(-1);
    *at = pos + std::strlen(key);
    return std::strtoll(json.c_str() + *at, nullptr, 10);
  };
  static const char kEvent[] = "{\"name\":\"";
  size_t pos = json.find(kEvent);
  while (pos != std::string::npos) {
    const size_t name_begin = pos + std::strlen(kEvent);
    const size_t name_end = json.find('"', name_begin);
    const size_t ph = json.find("\"ph\":\"", name_end);
    if (name_end == std::string::npos || ph == std::string::npos) break;
    const char phase = json[ph + 6];
    size_t at = ph;
    const long long ts = number_after("\"ts\":", at, &at);
    const long long id = number_after("\"span\":", at, &at);
    const long long parent = number_after("\"parent\":", at, &at);
    if (ts < 0 || id < 0 || parent < 0) break;
    Span& s = spans[static_cast<uint64_t>(id)];
    s.name = json.substr(name_begin, name_end - name_begin);
    s.parent = static_cast<uint64_t>(parent);
    (phase == 'B' ? s.begin : s.end) = ts;
    pos = json.find(kEvent, at);
  }

  SpanTotals out;
  for (const auto& [id, s] : spans) {
    if (s.begin < 0 || s.end < 0) continue;
    ++out.count[s.name];
    bool nested_in_same_name = false;
    for (uint64_t p = s.parent; p != 0;) {
      auto it = spans.find(p);
      if (it == spans.end()) break;
      if (it->second.name == s.name) {
        nested_in_same_name = true;
        break;
      }
      p = it->second.parent;
    }
    if (!nested_in_same_name) {
      out.ms[s.name] += static_cast<double>(s.end - s.begin) / 1000.0;
    }
  }
  return out;
}

double CounterValue(const bddfc::obs::MetricsSnapshot& snap,
                    const std::string& name) {
  for (const bddfc::obs::MetricPoint& p : snap.counters) {
    if (p.name == name) return static_cast<double>(p.value);
  }
  return 0;
}

Report::Report(std::vector<Metric> expected, bool fill_missing_with_zero)
    : expected_(std::move(expected)),
      fill_missing_with_zero_(fill_missing_with_zero) {}

void Report::Set(const std::string& name, double value, size_t samples) {
  const bool known =
      std::any_of(expected_.begin(), expected_.end(),
                  [&](const Metric& m) { return m.name == name; });
  if (!known) {
    std::fprintf(stderr, "internal error: unknown metric %s\n", name.c_str());
    std::abort();
  }
  values_[name] = Value{value, samples};
}

void Report::SetMedian(const std::string& name,
                       const std::vector<double>& samples) {
  std::string line = name + " samples:";
  char buf[32];
  for (double v : samples) {
    std::snprintf(buf, sizeof(buf), " %.4g", v);
    line += buf;
  }
  Note(line);
  Set(name, Median(samples), samples.size());
}

void Report::Fail(const std::string& why) {
  setup_ok_ = false;
  Count(false);
  notes_.push_back("CHECK FAILED: " + why);
}

bool Report::Print() const {
  for (const std::string& n : notes_) std::printf("# %s\n", n.c_str());
  std::string json = "{\"correct\": ";
  json += setup_ok_ && failed_ == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_) +
          ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  bool complete = true;
  bool first = true;
  for (const Metric& m : expected_) {
    auto it = values_.find(m.name);
    Value v;
    if (it != values_.end()) {
      v = it->second;
    } else if (!fill_missing_with_zero_ && setup_ok_) {
      std::fprintf(stderr, "internal error: metric %s was not measured\n",
                   m.name.c_str());
      complete = false;
    }
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", v.value);
    std::printf("%-26s %-14s %s", m.name.c_str(), number, m.unit.c_str());
    if (v.samples != 0) std::printf("  (n=%zu)", v.samples);
    std::printf("\n");
    json += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + number + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  const double error_rate =
      attempted_ == 0 ? 0 : static_cast<double>(failed_) / attempted_;
  std::printf("%-26s %-14.6g fraction  (n=%llu)\n", "error_rate", error_rate,
              static_cast<unsigned long long>(attempted_));
  json += "}}";
  if (!complete) return false;
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return true;
}

const std::vector<Report::Metric>& EndToEndMetrics() {
  static const std::vector<Report::Metric> kMetrics = {
      {"setup_s", "s"},
      {"job_s", "s"},
      {"job_t4_s", "s"},
      {"peak_rss_mb", "MiB"},
  };
  return kMetrics;
}

const std::vector<Report::Metric>& PerLayerMetrics() {
  static const std::vector<Report::Metric> kMetrics = {
      {"parser.program_ms", "ms"},
      {"parser.query_us", "us"},
      {"eval.plan_exec_ms", "ms"},
      {"eval.bindings", "count"},
      {"eval.rows_scanned", "count"},
      {"eval.bindings_per_row", "ratio"},
      {"eval.satisfies_us", "us"},
      {"chase.rounds", "count"},
      {"chase.round_ms", "ms"},
      {"chase.sink_ms", "ms"},
      {"chase.other_ms", "ms"},
      {"chase.sink_candidates", "count"},
      {"chase.sink_contained", "count"},
      {"chase.datalog_deduped", "count"},
      {"chase.new_per_candidate", "ratio"},
      {"chase.triggers_deduped", "count"},
      {"chase.nulls", "count"},
      {"chase.shard_busy", "fraction"},
      {"pool.tasks", "count"},
      {"core.facts", "count"},
      {"core.bytes_per_fact", "B"},
      {"rewrite.cold_ms", "ms"},
      {"rewrite.hom_checks", "count"},
      {"rewrite.candidates", "count"},
      {"rewrite.kappa_ms", "ms"},
      {"types.color_ms", "ms"},
      {"types.quotient_ms", "ms"},
      {"finitemodel.chase_ms", "ms"},
      {"finitemodel.saturate_ms", "ms"},
      {"finitemodel.certify_ms", "ms"},
      {"finitemodel.skeleton_ms", "ms"},
      {"finitemodel.attempts", "count"},
      {"finitemodel.model_elements", "count"},
      {"serve.compile_ms", "ms"},
      {"serve.query_ms", "ms"},
      {"serve.query_wait_ms", "ms"},
      {"serve.hit_ratio", "fraction"},
      {"serve.evictions", "count"},
      {"serve.shed", "count"},
      {"serve.qps", "req/s"},
      {"serve.query_p50_ms", "ms"},
      {"serve.query_p99_ms", "ms"},
      {"serve.compile_p50_ms", "ms"},
      {"serve.rewrite_p50_ms", "ms"},
      {"trace.job_s", "s"},
      {"trace.overhead", "fraction"},
  };
  return kMetrics;
}

}  // namespace perfbench
