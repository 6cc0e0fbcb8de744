// perfbench: times the bddfc library end to end on one workload and prints
// every metric by name with its unit, then one JSON result line.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--scale tiny] [--drop-fact] [--dump-inputs]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// --scale, --drop-fact and --dump-inputs serve the self-test (see
// perfbench/selftest.py); --memory-probe is how the benchmark runs the
// fresh process that peak_rss_mb measures.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "tc-path|graph-mixed|model-path|serve-mix --seed N "
               "--seconds S --trace 0|1 [--scale full|tiny] [--drop-fact] "
               "[--dump-inputs]\n",
               why);
  return 2;
}

bool ParseNumber(const std::string& s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return !s.empty() && end != nullptr && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--drop-fact") {
      o.drop_fact = true;
      continue;
    }
    if (flag == "--dump-inputs") {
      o.dump_inputs = true;
      continue;
    }
    if (flag == "--memory-probe") {
      o.memory_probe = true;
      continue;
    }
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return Usage(("missing value for " + flag).c_str());
    }
    double number = 0;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--scale" && (value == "full" || value == "tiny")) {
      o.tiny = value == "tiny";
    } else if (flag == "--seed" && ParseNumber(value, &number) && number >= 0) {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds" && ParseNumber(value, &number) &&
               number > 0) {
      o.seconds = number;
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      o.trace = value == "1";
    } else {
      return Usage(("bad flag " + flag + " " + value).c_str());
    }
  }
  const bool serve = o.workload == "serve-mix";
  if (!serve && !perfbench::IsBatchWorkload(o.workload)) {
    return Usage(("unknown workload '" + o.workload + "'").c_str());
  }

  if (o.dump_inputs) {
    const std::string text =
        serve ? perfbench::ServeMixInputs(o) : perfbench::BatchInputs(o);
    std::fwrite(text.data(), 1, text.size(), stdout);
    return 0;
  }

  if (o.memory_probe) {
    perfbench::Report unused({}, true);
    serve ? perfbench::RunServeMix(o, unused) : perfbench::RunBatch(o, unused);
    std::printf("%.0f\n", perfbench::PeakRssOfThisProcessKib());
    return 0;
  }

  perfbench::Report report(o.trace ? perfbench::PerLayerMetrics()
                                   : perfbench::EndToEndMetrics(),
                           /*fill_missing_with_zero=*/o.trace);
  if (serve) {
    perfbench::RunServeMix(o, report);
  } else {
    perfbench::RunBatch(o, report);
  }
  return report.Print() ? 0 : 1;
}
