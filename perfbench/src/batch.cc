// The three batch workloads: one job is ParseProgram on the generated
// program text followed by one engine call, as a CLI user runs it.
//
//   tc-path      nonlinear transitive closure over a path: join-bound,
//                the executor and sink do nearly all the work.
//   graph-mixed  two random edge relations under datalog joins and
//                existential TGDs: wide rounds, the fact store dominates.
//   model-path   the Theorem 2 counter-model pipeline on Example 7: the
//                layers no chase workload reaches (coloring, quotient,
//                saturation, certification).

#include "workloads.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "bddfc/chase/chase.h"
#include "bddfc/eval/match.h"
#include "bddfc/finitemodel/pipeline.h"
#include "bddfc/obs/metrics.h"
#include "bddfc/obs/trace.h"
#include "bddfc/parser/parser.h"
#include "bddfc/workload/generators.h"

namespace perfbench {
namespace {

using bddfc::ChaseOptions;
using bddfc::ChaseResult;
using bddfc::FiniteModelResult;
using bddfc::Program;
using bddfc::Rng;

/// One job's outputs, kept alive until they are checked.
struct Job {
  std::optional<Program> program;
  std::optional<ChaseResult> chase;
  std::optional<FiniteModelResult> model;
  std::string error;  ///< parse or engine failure; empty when both ran
  double parse_s = 0;
  double total_s = 0;
};

/// Constant names for `n` nodes, permuted by the seed.
std::vector<std::string> SeededNames(const char* prefix, size_t n, Rng& rng) {
  std::vector<size_t> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(ids[i - 1], ids[rng.Uniform(i)]);
  std::vector<std::string> names(n);
  for (size_t i = 0; i < n; ++i) names[i] = prefix + std::to_string(ids[i]);
  return names;
}

/// Rules, then the facts in seeded order, then the queries.
std::string ProgramText(const std::string& rules, std::vector<std::string> facts,
                        const std::string& queries, Rng& rng) {
  for (size_t i = facts.size(); i > 1; --i) {
    std::swap(facts[i - 1], facts[rng.Uniform(i)]);
  }
  std::string text = rules;
  for (const std::string& f : facts) text += f + "\n";
  return text + queries;
}

void PathFacts(const std::vector<std::string>& names,
               std::vector<std::string>* facts) {
  for (size_t i = 0; i + 1 < names.size(); ++i) {
    facts->push_back("e(" + names[i] + ", " + names[i + 1] + ").");
  }
}

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::string Generate(uint64_t seed) const = 0;
  /// Runs one job with the engine's thread knob set to `threads`.
  virtual Job Run(const std::string& text, size_t threads) const = 0;
  /// Checks the warm-up job and keeps what later jobs are compared with.
  virtual std::string SetReference(const Job& job) = 0;
  /// Checks one timed job; empty string = pass.
  virtual std::string Check(const Job& job, bool drop_fact) const = 0;
};

Job ParseThen(const std::string& text,
              const std::function<void(Job&)>& engine) {
  Job job;
  Stopwatch sw;
  bddfc::Result<Program> parsed = bddfc::ParseProgram(text);
  job.parse_s = sw.Seconds();
  if (!parsed.ok()) {
    job.error = "parse: " + parsed.status().ToString();
    job.total_s = sw.Seconds();
    return job;
  }
  job.program.emplace(std::move(parsed.value()));
  engine(job);
  job.total_s = sw.Seconds();
  return job;
}

/// Shared by the two chase workloads: kParallel (the production engine)
/// at the requested thread count, checked by a sorted-fact digest against
/// the warm-up job's.
class ChaseWorkload : public Workload {
 public:
  Job Run(const std::string& text, size_t threads) const override {
    return ParseThen(text, [threads](Job& job) {
      ChaseOptions opts;
      opts.engine = bddfc::ChaseEngine::kParallel;
      opts.threads = threads;
      opts.max_facts = size_t{1} << 22;
      job.chase.emplace(bddfc::RunChase(job.program->theory,
                                        job.program->instance, opts));
    });
  }

  std::string SetReference(const Job& job) override {
    std::string why = Basic(job);
    if (!why.empty()) return why;
    why = CheckReference(job);
    if (!why.empty()) return why;
    ref_facts_ = job.chase->structure.NumFacts();
    ref_digest_ = FactDigest(job.chase->structure, false);
    return {};
  }

  std::string Check(const Job& job, bool drop_fact) const override {
    std::string why = Basic(job);
    if (!why.empty()) return why;
    if (job.chase->structure.NumFacts() != ref_facts_) {
      return "fact count differs from the reference job";
    }
    if (FactDigest(job.chase->structure, drop_fact) != ref_digest_) {
      return "sorted-fact digest differs from the reference job";
    }
    return {};
  }

 protected:
  virtual std::string CheckReference(const Job& job) const = 0;

 private:
  static std::string Basic(const Job& job) {
    if (!job.error.empty()) return job.error;
    if (!job.chase->status.ok()) return "chase: " + job.chase->status.ToString();
    if (!job.chase->fixpoint_reached) return "chase stopped before fixpoint";
    return {};
  }

  size_t ref_facts_ = 0;
  uint64_t ref_digest_ = 0;
};

/// e(X,Y), e(Y,Z) -> e(X,Z) over a path of n constants: the closure has
/// exactly n(n-1)/2 facts whatever the seed.
class TcPath : public ChaseWorkload {
 public:
  explicit TcPath(bool tiny) : n_(tiny ? 40 : 320) {}

  std::string Generate(uint64_t seed) const override {
    Rng rng(Rng::Mix(seed, 1));
    std::vector<std::string> facts;
    PathFacts(SeededNames("c", n_, rng), &facts);
    return ProgramText("e(X, Y), e(Y, Z) -> e(X, Z).\n", facts, "", rng);
  }

 protected:
  std::string CheckReference(const Job& job) const override {
    const size_t want = n_ * (n_ - 1) / 2;
    if (job.chase->structure.NumFacts() != want) {
      return "closure has " + std::to_string(job.chase->structure.NumFacts()) +
             " facts, want " + std::to_string(want);
    }
    return {};
  }

 private:
  size_t n_;
};

/// Random e and f edges under two datalog joins, two existential TGDs and
/// one rule that joins invented nulls back to the data.
class GraphMixed : public ChaseWorkload {
 public:
  explicit GraphMixed(bool tiny)
      : nodes_(tiny ? 600 : 30000),
        e_edges_(2 * nodes_),
        f_edges_(nodes_) {}

  std::string Generate(uint64_t seed) const override {
    Rng rng(Rng::Mix(seed, 2));
    const std::vector<std::string> names = SeededNames("v", nodes_, rng);
    std::vector<std::string> facts;
    auto edges = [&](const char* pred, size_t count) {
      for (size_t i = 0; i < count; ++i) {
        facts.push_back(std::string(pred) + "(" +
                        names[rng.Uniform(nodes_)] + ", " +
                        names[rng.Uniform(nodes_)] + ").");
      }
    };
    edges("e", e_edges_);
    edges("f", f_edges_);
    return ProgramText(
        "e(X, Y), f(Y, Z) -> g(X, Z).\n"
        "f(X, Y), e(Y, Z) -> h(X, Z).\n"
        "e(X, Y) -> exists W: s(Y, W).\n"
        "g(X, Y) -> exists W: t(X, W).\n"
        "s(Y, W), e(X, Y) -> u(X, W).\n",
        facts, "", rng);
  }

 protected:
  std::string CheckReference(const Job& job) const override {
    if (auto v = bddfc::CheckModel(job.chase->structure,
                                   job.program->theory)) {
      return "chase result violates rule " + std::to_string(v->rule_index);
    }
    return {};
  }

 private:
  size_t nodes_, e_edges_, f_edges_;
};

/// The paper's Example 7 theory over a seeded-name path, query e(X, X):
/// the chase never satisfies it, so the pipeline must certify a finite
/// counter-model. The only thread knob the pipeline exposes is the
/// rewriter's fan-out, which is what `threads` sets.
class ModelPath : public Workload {
 public:
  explicit ModelPath(bool tiny) : n_(tiny ? 16 : 256) {}

  std::string Generate(uint64_t seed) const override {
    Rng rng(Rng::Mix(seed, 3));
    std::vector<std::string> facts;
    PathFacts(SeededNames("d", n_, rng), &facts);
    return ProgramText(
        "e(X, Y) -> exists Z: e(Y, Z).\n"
        "e(X, Y), e(X1, Y) -> r(X, X1).\n",
        facts, "?- e(X, X).\n", rng);
  }

  Job Run(const std::string& text, size_t threads) const override {
    return ParseThen(text, [threads](Job& job) {
      if (job.program->queries.size() != 1) {
        job.error = "expected exactly one query";
        return;
      }
      bddfc::PipelineOptions opts;
      opts.rewrite_options.threads = threads;
      job.model.emplace(bddfc::ConstructFiniteCounterModel(
          job.program->theory, job.program->instance,
          job.program->queries[0], opts));
    });
  }

  std::string SetReference(const Job& job) override { return Check(job, false); }

  /// Rechecks the model from outside the pipeline: it contains D, it is a
  /// model of T0, and Q is false in it.
  std::string Check(const Job& job, bool) const override {
    if (!job.error.empty()) return job.error;
    const FiniteModelResult& r = *job.model;
    if (!r.status.ok()) return "pipeline: " + r.status.ToString();
    if (!r.model.ContainsAllFactsOf(job.program->instance)) {
      return "model does not contain D";
    }
    if (auto v = bddfc::CheckModel(r.model, job.program->theory)) {
      return "model violates rule " + std::to_string(v->rule_index);
    }
    if (bddfc::Satisfies(r.model, job.program->queries[0])) {
      return "query holds in the model";
    }
    return {};
  }

 private:
  size_t n_;
};

/// Per-layer numbers of one traced job.
using Layers = std::map<std::string, double>;

Layers LayersOf(const Job& job, const SpanTotals& spans,
                const bddfc::obs::MetricsSnapshot& snap) {
  auto counter = [&](const char* name) { return CounterValue(snap, name); };
  Layers l;
  l["parser.program_ms"] = job.parse_s * 1000;
  l["eval.plan_exec_ms"] = spans.Ms("plan.exec");
  double round_ms = spans.Ms("chase.round");
  if (job.chase) {
    round_ms = 0;
    for (double ms : job.chase->stats.round_ms) round_ms += ms;
  }
  l["chase.round_ms"] = round_ms;
  l["chase.sink_ms"] = spans.Ms("chase.sink");
  l["chase.other_ms"] = round_ms - l["eval.plan_exec_ms"] - l["chase.sink_ms"];
  const double bindings = counter("bddfc.chase.bindings_tried");
  const double rows = counter("bddfc.chase.rows_scanned");
  l["eval.bindings"] = bindings;
  l["eval.rows_scanned"] = rows;
  l["eval.bindings_per_row"] = rows > 0 ? bindings / rows : 0;
  l["chase.rounds"] = counter("bddfc.chase.rounds");
  const double candidates = counter("bddfc.chase.sink_candidates");
  const double contained = counter("bddfc.chase.sink_contained");
  const double deduped = counter("bddfc.chase.datalog_deduped");
  l["chase.sink_candidates"] = candidates;
  l["chase.sink_contained"] = contained;
  l["chase.datalog_deduped"] = deduped;
  l["chase.new_per_candidate"] =
      candidates > 0 ? (candidates - contained - deduped) / candidates : 0;
  l["chase.triggers_deduped"] = counter("bddfc.chase.triggers_deduped");
  l["chase.nulls"] = counter("bddfc.chase.nulls_created");
  l["rewrite.hom_checks"] = counter("bddfc.rewrite.hom_checks");
  l["rewrite.candidates"] = counter("bddfc.rewrite.candidates");
  l["rewrite.kappa_ms"] = spans.Ms("kappa");
  l["types.color_ms"] = spans.Ms("color");
  l["types.quotient_ms"] = spans.Ms("quotient");
  l["finitemodel.chase_ms"] = spans.Ms("chase");
  l["finitemodel.saturate_ms"] = spans.Ms("saturate");
  l["finitemodel.certify_ms"] = spans.Ms("certify");
  l["finitemodel.skeleton_ms"] = spans.Ms("skeleton");
  if (job.chase) {
    l["core.facts"] = static_cast<double>(job.chase->structure.NumFacts());
  }
  if (job.model) {
    l["core.facts"] = static_cast<double>(job.model->model.NumFacts());
    l["finitemodel.attempts"] = static_cast<double>(job.model->attempts.size());
    l["finitemodel.model_elements"] =
        static_cast<double>(job.model->model.Domain().size());
  }
  return l;
}

/// Runs `job` with the process tracer and registry on, as --trace-out does.
Job Traced(const std::function<Job()>& run, SpanTotals* spans,
           bddfc::obs::MetricsSnapshot* snap, std::string* note) {
  bddfc::obs::Tracer& tracer = bddfc::obs::Tracer::Global();
  bddfc::obs::MetricsRegistry& reg = bddfc::obs::MetricsRegistry::Global();
  tracer.Enable(size_t{1} << 20);
  reg.Reset();
  reg.set_enabled(true);
  Job job = run();
  reg.set_enabled(false);
  tracer.Disable();
  if (tracer.overwritten_events() != 0) {
    *note = "trace ring overflowed: " +
            std::to_string(tracer.overwritten_events()) + " events lost";
  }
  *spans = SummarizeTrace(tracer.ExportChromeJson());
  *snap = reg.Snapshot();
  tracer.Reset();
  return job;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, bool tiny) {
  if (name == "tc-path") return std::make_unique<TcPath>(tiny);
  if (name == "graph-mixed") return std::make_unique<GraphMixed>(tiny);
  if (name == "model-path") return std::make_unique<ModelPath>(tiny);
  return nullptr;
}

}  // namespace

bool IsBatchWorkload(const std::string& name) {
  return MakeWorkload(name, true) != nullptr;
}

std::string BatchInputs(const Options& o) {
  return MakeWorkload(o.workload, o.tiny)->Generate(o.seed);
}

void RunBatch(const Options& o, Report& report) {
  std::unique_ptr<Workload> w = MakeWorkload(o.workload, o.tiny);
  if (o.memory_probe) {
    w->Run(w->Generate(o.seed), 1);
    return;
  }

  // Set-up: input generation and the 1-thread reference job, repeated; the
  // median is setup_s. Then one 4-thread warm-up job: the first 4-thread
  // job of a process pays for starting its workers. The first repetition
  // also prices the job's memory: RSS growth while its result is alive,
  // per fact.
  std::vector<double> setup_s;
  std::string text;
  double bytes_per_fact = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Stopwatch sw;
    text = w->Generate(o.seed);
    const double rss_before = CurrentRssBytes();
    Job warm = w->Run(text, 1);
    if (rep == 0 && (warm.chase || warm.model)) {
      const double facts = static_cast<double>(
          warm.chase ? warm.chase->structure.NumFacts()
                     : warm.model->model.NumFacts());
      bytes_per_fact = (CurrentRssBytes() - rss_before) / std::max(facts, 1.0);
    }
    const std::string why = w->SetReference(warm);
    if (!why.empty()) {
      report.Fail("reference job: " + why);
      return;
    }
    setup_s.push_back(sw.Seconds());
  }
  if (const std::string why = w->Check(w->Run(text, 4), false); !why.empty()) {
    report.Fail("4-thread warm-up job: " + why);
    return;
  }

  auto checked = [&](const Job& job) {
    const std::string why = w->Check(job, o.drop_fact);
    if (!why.empty()) report.Note("job failed: " + why);
    report.Count(why.empty());
  };

  Stopwatch run;
  if (!o.trace) {
    // Alternate 1- and 4-thread jobs so drift on the machine hits both.
    std::vector<double> t1, t4;
    do {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        Job job = w->Run(text, threads);
        (threads == 1 ? t1 : t4).push_back(job.total_s);
        checked(job);
      }
    } while (run.Seconds() < o.seconds);
    report.SetMedian("setup_s", setup_s);
    report.SetMedian("job_s", t1);
    report.SetMedian("job_t4_s", t4);
    MeasurePeakRss(o, report);
    return;
  }

  // Traced run: untraced and traced 1-thread jobs alternate (their ratio
  // is the tracing overhead); the layer split comes from the traced job of
  // median time, the shard figures from one traced 4-thread job.
  std::vector<double> plain;
  std::vector<std::pair<double, Layers>> traced;
  std::string note;
  do {
    Job job = w->Run(text, 1);
    plain.push_back(job.total_s);
    checked(job);
    SpanTotals spans;
    bddfc::obs::MetricsSnapshot snap;
    Job tj = Traced([&] { return w->Run(text, 1); }, &spans, &snap, &note);
    traced.emplace_back(tj.total_s, LayersOf(tj, spans, snap));
    checked(tj);
  } while (run.Seconds() < o.seconds);
  SpanTotals spans4;
  bddfc::obs::MetricsSnapshot snap4;
  Job t4 = Traced([&] { return w->Run(text, 4); }, &spans4, &snap4, &note);
  checked(t4);
  if (!note.empty()) report.Note(note);

  std::sort(traced.begin(), traced.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [name, value] : traced[(traced.size() - 1) / 2].second) {
    report.Set(name, value);
  }
  const double round4 = spans4.Ms("chase.round");
  report.Set("chase.shard_busy",
             round4 > 0 ? spans4.Ms("chase.shard") / (4 * round4) : 0);
  report.Set("pool.tasks", static_cast<double>(spans4.Count("pool.task")));
  report.Set("core.bytes_per_fact", bytes_per_fact);
  std::vector<double> traced_s;
  for (const auto& [s, layers] : traced) traced_s.push_back(s);
  const double plain_s = Median(plain);
  report.Set("trace.job_s", Median(traced_s), traced_s.size());
  report.Set("trace.overhead",
             plain_s > 0 ? Median(traced_s) / plain_s - 1 : 0);
}

}  // namespace perfbench
