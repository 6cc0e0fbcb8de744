// bddfc-serve: the multi-tenant reasoning daemon (DESIGN.md §2.15).
//
// Listens on 127.0.0.1, serves the line protocol (and GET /metrics,
// GET /healthz for scrapers), and drains gracefully on SIGTERM/SIGINT:
// the listener closes, in-flight requests finish and fold their metrics,
// then --metrics-out / --trace-out artifacts are written and the process
// exits 0. Prints "listening on 127.0.0.1:<port>" once bound, so scripts
// using --port 0 can scrape the real port from stdout.
//
// Flags are strict (base/flags.h): a bad flag or a value out of range (a
// port above 65535, a zero count, a memory limit whose byte count
// overflows) exits 2 before the daemon starts.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>

#include "bddfc/base/flags.h"
#include "bddfc/obs/metrics.h"
#include "bddfc/obs/trace.h"
#include "bddfc/serve/daemon.h"
#include "bddfc/serve/server.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

int Usage() {
  std::fprintf(
      stderr,
      "usage: bddfc_serve [options]\n"
      "  --port=N             TCP port on 127.0.0.1 (default 0 = auto)\n"
      "  --memory-limit-mb=N  server-wide byte budget (default 256)\n"
      "  --cache-capacity=N   artifact cache entries (default 64)\n"
      "  --max-concurrent=N   in-flight requests before shedding "
      "(default 64)\n"
      "  --deadline-ms=N      per-request deadline (default 30000)\n"
      "  --max-rounds=N       compile chase round budget (default 256)\n"
      "  --max-facts=N        compile chase fact budget (default 1048576)\n"
      "  --threads=N          compile chase shards (default 1)\n"
      "  --trace              record per-session trace rings\n"
      "  --metrics-out=PATH   write server metrics JSON on shutdown\n"
      "  --trace-out=PATH     write a Chrome trace on shutdown "
      "(implies --trace)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using bddfc::serve::DaemonOptions;
  using bddfc::serve::ReasoningServer;
  using bddfc::serve::ServerOptions;

  ServerOptions options;
  DaemonOptions daemon;
  uint64_t memory_limit_mb = options.memory_limit_bytes >> 20;
  std::string metrics_out;
  std::string trace_out;
  bddfc::FlagSet flags("bddfc_serve");
  flags.Count("--port", &daemon.port);
  // The MiB-to-bytes shift below must not wrap.
  flags.Count("--memory-limit-mb", &memory_limit_mb, 0, SIZE_MAX >> 20);
  flags.Count("--cache-capacity", &options.cache_capacity, 1);
  flags.Count("--max-concurrent", &options.max_concurrent);
  flags.Real("--deadline-ms", &options.request_deadline_ms);
  flags.Count("--max-rounds", &options.compile.max_rounds, 1);
  flags.Count("--max-facts", &options.compile.max_facts, 1);
  flags.Count("--threads", &options.compile.threads, 1);
  flags.Bool("--trace", &options.tracing);
  flags.String("--metrics-out", &metrics_out);
  flags.String("--trace-out", &trace_out);
  if (!flags.Parse(argc, argv)) return Usage();
  options.memory_limit_bytes = static_cast<size_t>(memory_limit_mb) << 20;
  if (!trace_out.empty()) options.tracing = true;

  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  ReasoningServer server(options);
  std::atomic<uint16_t> bound_port{0};
  daemon.bound_port = &bound_port;

  // The accept loop owns the main thread; a sidecar announces the bound
  // port (scripts parse this line to find a --port 0 daemon).
  std::atomic<bool> done{false};
  std::thread announcer([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const uint16_t port = bound_port.load(std::memory_order_acquire);
      if (port != 0) {
        std::printf("listening on 127.0.0.1:%u\n", port);
        std::fflush(stdout);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  const bddfc::Status status = bddfc::serve::Serve(server, daemon, g_stop);
  done.store(true, std::memory_order_relaxed);
  announcer.join();
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }

  // Post-drain artifacts: every request has folded, so these are final.
  if (!metrics_out.empty() &&
      !bddfc::obs::WriteArtifact(metrics_out,
                                 server.ServerSnapshot().ToJson() + "\n")) {
    return 1;
  }
  if (!trace_out.empty()) {
    // One Chrome trace per shutdown: the first tenant's ring (sessions
    // each own a ring; the smoke script drives one tenant through it).
    std::string json = "{\"traceEvents\":[]}";
    const std::vector<std::string> tenants = server.Tenants();
    if (!tenants.empty()) {
      json = server.GetSession(tenants.front()).tracer.ExportChromeJson();
    }
    if (!bddfc::obs::WriteArtifact(trace_out, json + "\n")) return 1;
  }
  return 0;
}
