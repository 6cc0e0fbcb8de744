#include "bddfc/eval/exec.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "bddfc/obs/trace.h"

namespace bddfc {

namespace {

/// Soft budget on TermIds per block: wide slot layouts get fewer rows per
/// block so one block stays around a cache-friendly 64 KiB.
constexpr size_t kBlockBudgetTerms = 16384;

/// Per-step execution context resolved once per Executor::Init: the
/// relation's arena and the clamped band.
struct StepCtx {
  /// Row-major arena of the step's relation: row r's value at position
  /// pos is rows[r * arity + pos].
  const TermId* rows = nullptr;
  size_t arity = 0;
  uint32_t lo = 0;
  uint32_t hi = 0;
  /// Band covers the whole relation: candidate slices need no clamping.
  bool full_band = false;
  /// Every position is already known (no kNew slot): the step is a pure
  /// existence check, answered by one exact-tuple FindRow lookup instead
  /// of a postings probe (the cycle-closing case).
  bool exists_check = false;
  /// Per position: a kBound arg whose slot is filled by *this* step (a
  /// within-atom repeat), so verification reads the scratch row, not the
  /// input slots.
  std::vector<char> bound_local;
  /// Slots this step fills, in position order.
  std::vector<uint16_t> new_slots;
};

struct Executor {
  const Structure& s;
  const QueryPlan& plan;
  /// Null for a probe: the first complete binding stops the search.
  const std::function<bool(const SlotBlock&)>* on_block;
  MatchStats* stats;
  const std::function<bool()>* abort;

  size_t width = 0;
  size_t block_rows = 0;
  std::vector<StepCtx> steps;
  std::vector<std::vector<TermId>> blocks;  // output buffer per step
  std::vector<TermId> seed_row;  // step 0's one input row
  std::vector<TermId> scratch;  // this step's fresh slot values, one row
  std::vector<TermId> key_buf;  // exists-check tuple, reused per row
  bool stopped = false;  // callback ended enumeration
  bool aborted = false;  // abort hook tripped

  Executor(const Structure& s_, const QueryPlan& plan_,
           const std::function<bool(const SlotBlock&)>* cb, MatchStats* st,
           const std::function<bool()>* ab)
      : s(s_), plan(plan_), on_block(cb), stats(st), abort(ab) {}

  /// Resolves every step's arena and band once; blocks hold at most
  /// `max_block_rows` rows.
  void Init(const std::vector<RowBand>* bands, size_t max_block_rows) {
    width = plan.num_slots;
    block_rows = std::max<size_t>(
        1, std::min(max_block_rows,
                    kBlockBudgetTerms / std::max<size_t>(width, 1)));
    steps.resize(plan.steps.size());
    blocks.resize(plan.steps.size());
    seed_row.assign(width, 0);
    scratch.resize(width, 0);
    std::vector<char> is_local(width, 0);
    for (size_t i = 0; i < plan.steps.size(); ++i) {
      const PlanStep& st = plan.steps[i];
      StepCtx& sc = steps[i];
      const uint32_t n = static_cast<uint32_t>(s.NumFacts(st.pred));
      const RowBand band =
          bands != nullptr ? (*bands)[st.atom_index] : RowBand::All();
      sc.lo = band.begin;
      sc.hi = std::min<uint32_t>(band.end, n);
      sc.full_band = sc.lo == 0 && sc.hi == n;
      const RowsView rows = s.Rows(st.pred);
      sc.rows = rows.data();
      sc.arity = rows.arity();
      // A tuple of another length is never stored: no row can match.
      if (sc.arity != st.args.size()) sc.hi = sc.lo;
      sc.bound_local.assign(st.args.size(), 0);
      for (size_t pos = 0; pos < st.args.size(); ++pos) {
        const PlanArg& a = st.args[pos];
        if (a.kind == PlanArg::kNew) {
          sc.new_slots.push_back(a.slot);
          is_local[a.slot] = 1;
        } else if (a.kind == PlanArg::kBound) {
          sc.bound_local[pos] = is_local[a.slot];
        }
      }
      for (uint16_t slot : sc.new_slots) is_local[slot] = 0;
      sc.exists_check = sc.new_slots.empty() && !st.args.empty();
    }
  }

  bool CheckAbort() {
    if (!aborted && abort != nullptr && (*abort)()) aborted = true;
    return aborted;
  }

  void Emit(const TermId* rows, size_t n) {
    if (stats != nullptr) stats->bindings_tried += n;
    if (on_block == nullptr ||
        !(*on_block)(SlotBlock{rows, n, width, plan.slot_vars.data()})) {
      stopped = true;
    }
  }

  /// Verifies one candidate row against the input slots without touching
  /// the output block. Constants and already-bound slots compare; fresh
  /// slots fill `scratch` — in position order, so a later within-atom
  /// occurrence of a just-filled slot compares correctly (bound_local).
  bool VerifyRow(const PlanStep& st, const StepCtx& sc, const TermId* slots,
                 uint32_t row) {
    if (stats != nullptr) ++stats->rows_scanned;
    const TermId* values = sc.rows + static_cast<size_t>(row) * sc.arity;
    for (size_t pos = 0; pos < st.args.size(); ++pos) {
      const PlanArg& a = st.args[pos];
      const TermId rv = values[pos];
      switch (a.kind) {
        case PlanArg::kConst:
          if (a.value != rv) return false;
          break;
        case PlanArg::kBound: {
          const TermId bv =
              sc.bound_local[pos] ? scratch[a.slot] : slots[a.slot];
          if (bv != rv) return false;
          break;
        }
        case PlanArg::kNew:
          scratch[a.slot] = rv;
          break;
      }
    }
    return true;
  }

  /// Appends the input slots extended with the verified row's fresh slot
  /// values (left in `scratch` by VerifyRow). Failed rows never touch the
  /// block, so there is no copy-and-roll-back on the reject path.
  void AppendRow(const StepCtx& sc, const TermId* slots,
                 std::vector<TermId>* out) {
    const size_t base = out->size();
    out->insert(out->end(), slots, slots + width);
    TermId* dst = out->data() + base;
    for (uint16_t slot : sc.new_slots) dst[slot] = scratch[slot];
  }

  void RunStep(size_t si, const TermId* in, size_t in_rows) {
    if (stopped || CheckAbort()) return;
    if (si == plan.steps.size()) {
      Emit(in, in_rows);
      return;
    }
    const PlanStep& st = plan.steps[si];
    const StepCtx& sc = steps[si];
    if (sc.lo >= sc.hi) return;  // empty band: nothing can match
    std::vector<TermId>& out = blocks[si];
    out.clear();
    size_t out_rows = 0;
    auto flush = [&] {
      if (out_rows == 0) return;
      RunStep(si + 1, out.data(), out_rows);
      out.clear();
      out_rows = 0;
    };

    for (size_t r = 0; r < in_rows; ++r) {
      if (stopped || aborted) return;
      const TermId* slots = in + r * width;

      // Fully-bound step: one exact-tuple lookup decides it. The found
      // row id is its position in the arena, so the band check is a
      // comparison — no postings probe, no scan.
      if (sc.exists_check) {
        key_buf.clear();
        for (const PlanArg& a : st.args) {
          key_buf.push_back(a.kind == PlanArg::kConst ? a.value
                                                      : slots[a.slot]);
        }
        const uint32_t row = s.FindRow(st.pred, key_buf);
        if (row == Structure::kNoRow || row < sc.lo || row >= sc.hi) {
          if (stats != nullptr) ++stats->postings_misses;
          continue;
        }
        if (stats != nullptr) {
          ++stats->postings_hits;
          ++stats->rows_scanned;
        }
        AppendRow(sc, slots, &out);
        if (++out_rows == block_rows) {
          flush();
          if (stopped || aborted) return;
        }
        continue;
      }

      // Probe every known position through the always-current hash
      // postings (measured faster than sorted-index binary search for
      // point probes); keep the smallest candidate slice.
      const uint32_t* cand_b = nullptr;
      const uint32_t* cand_e = nullptr;
      size_t best = SIZE_MAX;
      bool pruned = false;
      for (uint8_t pos : st.probe_positions) {
        const PlanArg& a = st.args[pos];
        const TermId v = a.kind == PlanArg::kConst ? a.value : slots[a.slot];
        const std::vector<uint32_t>* p = s.Postings(st.pred, pos, v);
        if (p == nullptr) {
          pruned = true;
          break;
        }
        const uint32_t* b = p->data();
        const uint32_t* e = b + p->size();
        if (!sc.full_band) {
          // Postings list rows ascending: the band is a slice.
          b = std::lower_bound(b, e, sc.lo);
          e = std::lower_bound(b, e, sc.hi);
        }
        if (b == e) {
          pruned = true;
          break;
        }
        if (static_cast<size_t>(e - b) < best) {
          best = static_cast<size_t>(e - b);
          cand_b = b;
          cand_e = e;
        }
      }
      if (pruned) {
        if (stats != nullptr) ++stats->postings_misses;
        continue;
      }
      if (stats != nullptr && cand_b != nullptr) ++stats->postings_hits;

      if (cand_b != nullptr) {
        for (const uint32_t* p = cand_b; p != cand_e; ++p) {
          if (VerifyRow(st, sc, slots, *p)) {
            AppendRow(sc, slots, &out);
            if (++out_rows == block_rows) {
              flush();
              if (stopped || aborted) return;
            }
          }
        }
      } else {
        // No probe positions: scan the band.
        for (uint32_t row = sc.lo; row < sc.hi; ++row) {
          if (VerifyRow(st, sc, slots, row)) {
            AppendRow(sc, slots, &out);
            if (++out_rows == block_rows) {
              flush();
              if (stopped || aborted) return;
            }
          }
        }
      }
    }
    flush();
  }

  /// Seeds the plan's first `n` slots and runs it; false iff the abort
  /// hook cut execution short.
  bool Run(const TermId* seed, size_t n) {
    assert(n <= width && "more seed values than plan slots");
    std::copy_n(seed, n, seed_row.begin());
    stopped = false;
    RunStep(0, seed_row.data(), 1);
    return !aborted;
  }
};

}  // namespace

bool ExecutePlan(const Structure& s, const QueryPlan& plan,
                 const std::vector<RowBand>* bands,
                 const std::vector<TermId>& seed,
                 const std::function<bool(const SlotBlock&)>& on_block,
                 MatchStats* stats, const std::function<bool()>* abort) {
  obs::TraceSpan span("plan.exec");
  Executor ex(s, plan, &on_block, stats, abort);
  ex.Init(bands, kExecBlockRows);
  return ex.Run(seed.data(), seed.size());
}

struct PlanProbe::Impl {
  QueryPlan plan;
  Executor ex;

  Impl(const Structure& s, QueryPlan p)
      : plan(std::move(p)), ex(s, plan, nullptr, nullptr, nullptr) {
    ex.Init(nullptr, 1);
  }
};

PlanProbe::PlanProbe(const Structure& s, QueryPlan plan)
    : impl_(std::make_unique<Impl>(s, std::move(plan))) {}

PlanProbe::~PlanProbe() = default;

bool PlanProbe::Exists(const TermId* seed, size_t n) {
  impl_->ex.Run(seed, n);
  return impl_->ex.stopped;
}

bool PlanExists(const Structure& s, const std::vector<Atom>& atoms,
                const Binding& partial) {
  std::vector<TermId> prebound;
  prebound.reserve(partial.size());
  for (const auto& [v, c] : partial) prebound.push_back(v);
  std::sort(prebound.begin(), prebound.end());
  std::vector<TermId> seed;
  seed.reserve(prebound.size());
  for (TermId v : prebound) seed.push_back(partial.at(v));
  PlanProbe probe(s, CompilePlan(s, atoms, kNoAnchor, prebound));
  return probe.Exists(seed.data(), seed.size());
}

}  // namespace bddfc
