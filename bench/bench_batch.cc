// B13: block-at-a-time execution on join-heavy materializations
// (DESIGN.md §12).
//
// Three workloads dominated by per-binding executor work:
//
// TcDense: semi-naive transitive closure over a dense expander-ish digraph
// (out-degree 3, tiny diameter). Deltas stay thousands of rows wide for the
// few rounds the fixpoint needs, so per-round fixed costs vanish and the
// timed region is the classic Datalog hot loop: probe the delta block
// against e's hash index, once per (delta row x successor).
//
// ProjJoin: the skewed three-way join from B12 projected onto its 4-value
// join key, under the (default) cost-based order. The body enumerates
// n x fan-out solutions but the head dedupes them into 16 facts, so
// insertion cost disappears and what remains is pure per-row executor
// overhead -- exactly what blocks amortize.
//
// NegExistential: the §6 young rule's shape, a negated literal with an
// existential residual variable (!a(X, Z), Z local) filtering n input rows.
// Half the X values have four a facts, half none. The anti-join kernel
// probes a's column 0 once per row and stops at the first fact; a
// per-row scan of a would verify up to |a| = 2n candidates per row.
#include <string>

#include "base/str_util.h"
#include "bench/bench_util.h"

namespace {

constexpr const char* kTcRules =
    "t(X, Y) :- e(X, Y).\n"
    "t(X, Y) :- e(X, Z), t(Z, Y).\n";

// n nodes, each with three deterministic out-edges: the successor ring plus
// two multiplicative strides. The ring makes the graph strongly connected
// (closure = n^2 facts); the strides shrink the diameter to a handful of
// rounds, so deltas are n^2-scale wide.
std::string TcFacts(size_t n) {
  std::string facts;
  facts.reserve(n * 50);
  for (size_t i = 0; i < n; ++i) {
    ldl::StrAppend(facts, "e(c", i, ", c", (i + 1) % n, ").\n");
    ldl::StrAppend(facts, "e(c", i, ", c", (i * 7 + 3) % n, ").\n");
    ldl::StrAppend(facts, "e(c", i, ", c", (i * 13 + 5) % n, ").\n");
  }
  return facts;
}

constexpr const char* kJoinRules =
    "hub(Z, Y) :- big(X, Z), fan(Z, W), sel(W, Y).\n";

constexpr size_t kFanOut = 32;

std::string JoinFacts(size_t n) {
  std::string facts;
  facts.reserve(n * 24);
  for (size_t i = 0; i < n; ++i) {
    ldl::StrAppend(facts, "big(b", i, ", k", i % 4, ").\n");
  }
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < kFanOut; ++j) {
      ldl::StrAppend(facts, "fan(k", i, ", w", i, "_", j, ").\n");
      ldl::StrAppend(facts, "sel(w", i, "_", j, ", s", i % 4, ").\n");
    }
  }
  return facts;
}

constexpr const char* kNegRules = "out(X, Y) :- s(X, Y), !a(X, Z).\n";

std::string NegFacts(size_t n) {
  std::string facts;
  facts.reserve(n * 80);
  for (size_t i = 0; i < n; ++i) {
    ldl::StrAppend(facts, "s(n", i, ", t", i, ").\n");
    if (i % 2 != 0) continue;
    for (size_t j = 0; j < 4; ++j) {
      ldl::StrAppend(facts, "a(n", i, ", m", i, "_", j, ").\n");
    }
  }
  return facts;
}

// Default configuration (cost-based planning, semi-naive mode, block
// executor), re-evaluated from scratch per iteration.
void RunMaterialize(benchmark::State& state, const std::string& facts,
                    const char* rules, const char* name) {
  ldl::EvalOptions options;
  options.profile = ldl_bench::ProfileRequested();
  ldl::EvalStats last;
  ldl::EvalProfile last_profile;
  auto session = ldl_bench::MakeSession(state, facts, rules);
  if (session == nullptr) return;
  for (auto _ : state) {
    session->InvalidateModel();
    ldl::Status status = session->Evaluate(options);
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      return;
    }
    last = session->last_eval_stats();
    if (options.profile) last_profile = session->last_eval_profile();
  }
  ldl_bench::RecordStats(state, last);
  ldl_bench::MaybeDumpProfile(
      name + ("/" + std::to_string(state.range(0))), last_profile);
}

void BM_TcDense(benchmark::State& state) {
  RunMaterialize(state, TcFacts(static_cast<size_t>(state.range(0))), kTcRules,
                 "TcDense");
}
void BM_ProjJoin(benchmark::State& state) {
  RunMaterialize(state, JoinFacts(static_cast<size_t>(state.range(0))),
                 kJoinRules, "ProjJoin");
}

void BM_NegExistential(benchmark::State& state) {
  RunMaterialize(state, NegFacts(static_cast<size_t>(state.range(0))),
                 kNegRules, "NegExistential");
}

}  // namespace

BENCHMARK(BM_TcDense)->Arg(128)->Arg(256)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ProjJoin)->Arg(1 << 14)->Arg(1 << 16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_NegExistential)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
