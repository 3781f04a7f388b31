// Rule body evaluation support: evaluation counters, literal ordering, and
// the reference substitution interpreter.
//
// Body literals are statically reordered so that built-ins run as soon as
// their inputs are bound and negated literals run once fully ground
// (negation-as-failure against completed lower strata). The engine executes
// every (rule, order) pair as a compiled JoinPlan (eval/plan.h) through the
// block pipeline of eval/batch.h. RuleEvaluator below is the small
// backtracking interpreter over symbol-keyed substitutions that the model
// checker and explain (semantics/) and the equivalence tests use as the
// reference oracle; the engine never calls it.
#ifndef LDL1_EVAL_RULE_EVAL_H_
#define LDL1_EVAL_RULE_EVAL_H_

#include <cstddef>
#include <functional>
#include <limits>
#include <vector>

#include "base/status.h"
#include "eval/bindings.h"
#include "eval/builtins.h"
#include "eval/relation.h"
#include "program/ir.h"
#include "term/term_ops.h"

namespace ldl {

// Row-id window restricting which facts a body literal occurrence sees.
// Semi-naive evaluation points one occurrence at a delta window.
struct LiteralWindow {
  size_t from = 0;
  size_t to = std::numeric_limits<size_t>::max();
};

// The one authoritative list of evaluation counters. The struct fields,
// EvalStats::Add, and every printer (REPL :stats, bench counters) are all
// generated from this X-macro, so adding a counter here is the whole job --
// nothing can silently drop it from stat folding (profiled rule applications
// collect into a local EvalStats and fold it into the totals).
#define LDL_EVAL_STATS_FIELDS(X)                                      \
  X(iterations)      /* fixpoint rounds */                            \
  X(rule_firings)    /* rule (variant) applications */                \
  X(solutions)       /* body solutions found */                       \
  X(facts_derived)   /* new facts inserted */                         \
  X(tuples_matched)  /* candidate tuples fed to the matcher */        \
  X(index_probes)    /* index lookups issued */                       \
  X(probe_hits)      /* rows returned by index lookups */             \
  X(plan_cache_hits) /* compiled-plan cache hits */                   \
  /* parallel_tasks and delta_shards always read 0: the engine has no  \
     worker pool. They stay only because perfbench reads them. */     \
  X(parallel_tasks)                                                   \
  X(delta_shards)                                                     \
  X(strata_skipped)  /* incremental: strata untouched by the update */ \
  X(strata_delta)    /* incremental: strata resumed from deltas */    \
  X(strata_recomputed) /* incremental: strata cleared and re-derived */ \
  X(strata_regrown)  /* incremental: grouping strata regrown per key */ \
  X(groups_built)    /* grouping partitions canonicalized + interned */ \
  X(groups_reused)   /* grouping partitions reused from the group cache */ \
  X(group_regrows)   /* partitions regrown in place by kGroupRegrow */  \
  X(set_interns)     /* distinct set terms interned by this evaluation */ \
  X(strata_overdeleted) /* incremental: strata taken through DRed over-delete */ \
  X(rederive_rounds) /* DRed: rederivation fixpoint rounds */           \
  X(count_decrements) /* deletion fast path: derivation-count decrements */ \
  X(plans_reordered) /* cost-based orders adopted that differ from syntactic */ \
  X(replans)         /* delta variants switched orders mid-fixpoint */

struct EvalStats {
#define LDL_EVAL_STATS_DECLARE(name) size_t name = 0;
  LDL_EVAL_STATS_FIELDS(LDL_EVAL_STATS_DECLARE)
#undef LDL_EVAL_STATS_DECLARE

  void Add(const EvalStats& other) {
#define LDL_EVAL_STATS_ADD(name) name += other.name;
    LDL_EVAL_STATS_FIELDS(LDL_EVAL_STATS_ADD)
#undef LDL_EVAL_STATS_ADD
  }

  // Visits ("name", value) for every counter, in declaration order.
  template <typename Fn>
  void ForEachField(Fn&& fn) const {
#define LDL_EVAL_STATS_VISIT(name) fn(#name, name);
    LDL_EVAL_STATS_FIELDS(LDL_EVAL_STATS_VISIT)
#undef LDL_EVAL_STATS_VISIT
  }
};

// --- Static boundness analysis ------------------------------------------
//
// Shared between the syntactic orderer below and the cost-based planner
// (eval/cost.h); both must agree on when a literal is evaluable so the two
// modes reject exactly the same rules.

// True when every variable of `t` appears in `bound`.
bool TermVarsBound(const Term* t, const std::vector<Symbol>& bound);

// Static boundness propagation mirroring the runtime modes in builtins.cc
// (see also wellformed.cc): true when the built-in (or negated literal) has
// enough bound arguments to run. Positive relational literals are always
// ready.
bool LiteralStaticallyReady(const LiteralIr& literal,
                            const std::vector<Symbol>& bound);

// Adds every variable occurring in `literal`'s arguments to `bound`.
void BindLiteralVars(const LiteralIr& literal, std::vector<Symbol>* bound);

// Number of argument positions whose variables are all in `bound` (join
// selectivity heuristic).
int BoundArgCount(const LiteralIr& literal, const std::vector<Symbol>& bound);

// For each body literal of `rule`: if it is a negated relational literal,
// the variables it shares with the head or another literal (readiness only
// requires those; variables local to the literal are existential under the
// negation, paper §6 rule 5). Empty for every other literal.
std::vector<std::vector<Symbol>> NegationSharedVars(const RuleIr& rule);

// Computes the evaluation order for `rule`'s body. If forced_first >= 0 that
// literal occurrence is scheduled first (semi-naive delta variant).
// `initially_bound` seeds the boundness analysis (e.g. head variables bound
// by a top-down call pattern). Returns kNotWellFormed if no evaluable order
// exists (a built-in or negation never becomes ready).
StatusOr<std::vector<int>> OrderBodyLiterals(
    const Catalog& catalog, const RuleIr& rule, int forced_first = -1,
    const std::vector<Symbol>* initially_bound = nullptr);

// Reference interpreter: a backtracking nested-loop join that threads one
// substitution through the body in `order`, probing a single-column index
// when some argument instantiates to a ground term and matching candidates
// by generic unification. Its counters differ from the block pipeline's
// (one probe column, no composite keys); its solutions do not.
class RuleEvaluator {
 public:
  // Yield for body solutions; return false to stop the enumeration.
  using SolutionFn = std::function<bool(const Subst&)>;

  // `order` must come from OrderBodyLiterals for the same rule.
  RuleEvaluator(TermFactory* factory, const RuleIr* rule, std::vector<int> order,
                BuiltinLimits limits = {});

  // Enumerates body solutions against `db`. `windows` is indexed by body
  // literal position (not evaluation order); empty means "full relation" for
  // every literal.
  Status ForEachSolution(const Database& db, const std::vector<LiteralWindow>& windows,
                         const SolutionFn& yield, EvalStats* stats);

  // Builds the head fact for one solution.
  InstantiationResult InstantiateHead(const Subst& solution) const;

  const RuleIr& rule() const { return *rule_; }

 private:
  Status EvalFrom(const Database& db, const std::vector<LiteralWindow>& windows,
                  size_t depth, Subst* subst, const SolutionFn& yield,
                  EvalStats* stats, bool* keep_going);

  TermFactory* factory_;
  const RuleIr* rule_;
  std::vector<int> order_;
  BuiltinLimits limits_;
};

}  // namespace ldl

#endif  // LDL1_EVAL_RULE_EVAL_H_
