#include "eval/rule_eval.h"

#include <algorithm>

#include "base/str_util.h"
#include "eval/bindings.h"
#include "term/unify.h"

namespace ldl {

bool TermVarsBound(const Term* t, const std::vector<Symbol>& bound) {
  std::vector<Symbol> vars;
  CollectVars(t, &vars);
  for (Symbol var : vars) {
    if (std::find(bound.begin(), bound.end(), var) == bound.end()) return false;
  }
  return true;
}

bool LiteralStaticallyReady(const LiteralIr& literal,
                            const std::vector<Symbol>& bound) {
  auto arg_bound = [&](size_t i) { return TermVarsBound(literal.args[i], bound); };

  if (literal.negated && literal.is_builtin()) {
    for (const Term* arg : literal.args) {
      if (!TermVarsBound(arg, bound)) return false;
    }
    return true;
  }
  switch (literal.builtin) {
    case BuiltinKind::kEq:
      return arg_bound(0) || arg_bound(1);
    case BuiltinKind::kNeq:
    case BuiltinKind::kLt:
    case BuiltinKind::kLe:
    case BuiltinKind::kGt:
    case BuiltinKind::kGe:
      return arg_bound(0) && arg_bound(1);
    case BuiltinKind::kMember:
    case BuiltinKind::kSubset:
      return arg_bound(1);
    case BuiltinKind::kUnion:
      return (arg_bound(0) && arg_bound(1)) || arg_bound(2);
    case BuiltinKind::kIntersection:
    case BuiltinKind::kDifference:
      return arg_bound(0) && arg_bound(1);
    case BuiltinKind::kPartition:
      return arg_bound(0) || (arg_bound(1) && arg_bound(2));
    case BuiltinKind::kCard:
      return arg_bound(0);
    case BuiltinKind::kPlus:
    case BuiltinKind::kMinus:
    case BuiltinKind::kTimes:
      return arg_bound(0) + arg_bound(1) + arg_bound(2) >= 2;
    case BuiltinKind::kDiv:
    case BuiltinKind::kMod:
      return arg_bound(0) && arg_bound(1);
    case BuiltinKind::kNone:
      return true;  // positive relational literals are always evaluable
  }
  return false;
}

void BindLiteralVars(const LiteralIr& literal, std::vector<Symbol>* bound) {
  for (const Term* arg : literal.args) {
    std::vector<Symbol> vars;
    CollectVars(arg, &vars);
    for (Symbol var : vars) {
      if (std::find(bound->begin(), bound->end(), var) == bound->end()) {
        bound->push_back(var);
      }
    }
  }
}

// Number of argument positions fully bound under `bound` (join selectivity
// heuristic).
int BoundArgCount(const LiteralIr& literal, const std::vector<Symbol>& bound) {
  int count = 0;
  for (const Term* arg : literal.args) {
    if (TermVarsBound(arg, bound)) ++count;
  }
  return count;
}

std::vector<std::vector<Symbol>> NegationSharedVars(const RuleIr& rule) {
  size_t n = rule.body.size();
  std::vector<std::vector<Symbol>> shared(n);
  for (size_t i = 0; i < n; ++i) {
    const LiteralIr& literal = rule.body[i];
    if (!literal.negated || literal.is_builtin()) continue;
    std::vector<Symbol> vars;
    for (const Term* arg : literal.args) CollectVars(arg, &vars);
    for (Symbol var : vars) {
      bool elsewhere = false;
      for (const Term* head_arg : rule.head_args) {
        if (OccursIn(head_arg, var)) elsewhere = true;
      }
      for (size_t j = 0; j < n && !elsewhere; ++j) {
        if (j == i) continue;
        for (const Term* arg : rule.body[j].args) {
          if (OccursIn(arg, var)) {
            elsewhere = true;
            break;
          }
        }
      }
      if (elsewhere) shared[i].push_back(var);
    }
  }
  return shared;
}

StatusOr<std::vector<int>> OrderBodyLiterals(
    const Catalog& catalog, const RuleIr& rule, int forced_first,
    const std::vector<Symbol>* initially_bound) {
  size_t n = rule.body.size();
  std::vector<int> order;
  order.reserve(n);
  std::vector<bool> scheduled(n, false);
  std::vector<Symbol> bound;
  if (initially_bound != nullptr) bound = *initially_bound;

  std::vector<std::vector<Symbol>> negation_shared_vars = NegationSharedVars(rule);
  auto negation_ready = [&](size_t i) {
    for (Symbol var : negation_shared_vars[i]) {
      if (std::find(bound.begin(), bound.end(), var) == bound.end()) return false;
    }
    return true;
  };

  if (forced_first >= 0) {
    order.push_back(forced_first);
    scheduled[forced_first] = true;
    BindLiteralVars(rule.body[forced_first], &bound);
  }

  while (order.size() < n) {
    // 1. Schedule every ready built-in / negation (they only filter or bind
    //    deterministically, so running them early is always good).
    bool scheduled_any = true;
    while (scheduled_any) {
      scheduled_any = false;
      for (size_t i = 0; i < n; ++i) {
        const LiteralIr& literal = rule.body[i];
        if (scheduled[i] || (!literal.is_builtin() && !literal.negated)) continue;
        bool ready = literal.negated && !literal.is_builtin()
                         ? negation_ready(i)
                         : LiteralStaticallyReady(literal, bound);
        if (ready) {
          order.push_back(static_cast<int>(i));
          scheduled[i] = true;
          if (!literal.negated) BindLiteralVars(literal, &bound);
          scheduled_any = true;
        }
      }
    }
    if (order.size() == n) break;

    // 2. Schedule the positive relational literal with the most bound
    //    argument positions (ties: textual order).
    int best = -1;
    int best_score = -1;
    for (size_t i = 0; i < n; ++i) {
      const LiteralIr& literal = rule.body[i];
      if (scheduled[i] || literal.is_builtin() || literal.negated) continue;
      int score = BoundArgCount(literal, bound);
      if (score > best_score) {
        best_score = score;
        best = static_cast<int>(i);
      }
    }
    if (best < 0) {
      // Only unready built-ins / negations remain.
      std::string names;
      for (size_t i = 0; i < n; ++i) {
        if (scheduled[i]) continue;
        if (!names.empty()) StrAppend(names, ", ");
        StrAppend(names, rule.body[i].is_builtin()
                             ? BuiltinName(rule.body[i].builtin)
                             : catalog.DebugName(rule.body[i].pred));
      }
      return NotWellFormedError(
          StrCat("rule for ", catalog.DebugName(rule.head_pred),
                 ": no evaluable order for body literals (", names,
                 " never become bound)"));
    }
    order.push_back(best);
    scheduled[best] = true;
    BindLiteralVars(rule.body[best], &bound);
  }
  return order;
}

RuleEvaluator::RuleEvaluator(TermFactory* factory, const RuleIr* rule,
                             std::vector<int> order, BuiltinLimits limits)
    : factory_(factory), rule_(rule), order_(std::move(order)), limits_(limits) {}

Status RuleEvaluator::ForEachSolution(const Database& db,
                                      const std::vector<LiteralWindow>& windows,
                                      const SolutionFn& yield, EvalStats* stats) {
  bool keep_going = true;
  Subst subst;
  return EvalFrom(db, windows, 0, &subst, yield, stats, &keep_going);
}

InstantiationResult RuleEvaluator::InstantiateHead(const Subst& solution) const {
  return InstantiateArgs(*factory_, rule_->head_args, solution);
}

// Probe columns are rediscovered per binding via ApplySubst and candidates
// match through generic unification: slow, but small enough to trust.
Status RuleEvaluator::EvalFrom(const Database& db,
                               const std::vector<LiteralWindow>& windows,
                               size_t depth, Subst* subst, const SolutionFn& yield,
                               EvalStats* stats, bool* keep_going) {
  if (depth == order_.size()) {
    ++stats->solutions;
    *keep_going = yield(*subst);
    return Status::OK();
  }
  int literal_index = order_[depth];
  const LiteralIr& literal = rule_->body[literal_index];
  Status status;

  if (literal.is_builtin()) {
    bool builtin_keep_going = true;
    Status builtin_status = EvalBuiltin(
        *factory_, literal, subst,
        [&]() {
          Status inner =
              EvalFrom(db, windows, depth + 1, subst, yield, stats, keep_going);
          if (!inner.ok()) {
            status = inner;
            return false;
          }
          return *keep_going;
        },
        &builtin_keep_going, limits_);
    if (!builtin_status.ok()) return builtin_status;
    return status;
  }

  if (literal.negated) {
    // Negation as failure against the (completed) relation.
    InstantiationResult inst = InstantiateArgs(*factory_, literal.args, *subst);
    bool holds;
    if (inst.unbound) {
      // Residual variables are existential under the negation (e.g. the
      // paper's !a(X, Z) with Z local): the negation holds iff *no* fact
      // matches the pattern.
      const Relation& relation = db.relation(literal.pred);
      bool any_match = false;
      relation.ForEachRow(0, relation.row_count(), [&](size_t, RowRef tuple) {
        if (any_match) return;
        ++stats->tuples_matched;
        MatchArgs(*factory_, literal.args, tuple, subst, [&]() {
          any_match = true;
          return false;
        });
      });
      holds = !any_match;
    } else {
      // A tuple outside U is not a U-fact, so its negation holds (§2.2).
      holds = inst.outside_universe ||
              !db.relation(literal.pred).Contains(inst.tuple);
    }
    if (!holds) return Status::OK();
    return EvalFrom(db, windows, depth + 1, subst, yield, stats, keep_going);
  }

  // Positive relational literal.
  const Relation& relation = db.relation(literal.pred);
  LiteralWindow window;
  if (!windows.empty()) window = windows[literal_index];
  size_t to = std::min(window.to, relation.row_count());

  // Probe an index if some argument instantiates to a ground term.
  int probe_column = -1;
  const Term* probe_value = nullptr;
  for (size_t i = 0; i < literal.args.size(); ++i) {
    const Term* inst = ApplySubst(*factory_, literal.args[i], *subst);
    if (inst != nullptr && inst->ground() && !inst->has_scons()) {
      probe_column = static_cast<int>(i);
      probe_value = inst;
      break;
    }
  }

  auto try_row = [&](RowRef tuple) -> bool {
    ++stats->tuples_matched;
    return MatchArgs(*factory_, literal.args, tuple, subst, [&]() {
      Status inner = EvalFrom(db, windows, depth + 1, subst, yield, stats, keep_going);
      if (!inner.ok()) {
        status = inner;
        return false;
      }
      return *keep_going;
    });
  };

  if (probe_column >= 0) {
    ++stats->index_probes;
    std::vector<size_t> row_ids;
    relation.Probe(static_cast<uint32_t>(probe_column), probe_value, window.from,
                   to, &row_ids);
    stats->probe_hits += row_ids.size();
    for (size_t row : row_ids) {
      if (!try_row(relation.row(row))) break;
    }
    return status;
  }

  bool stopped = false;
  relation.ForEachRow(window.from, to, [&](size_t, RowRef tuple) {
    if (stopped) return;
    if (!try_row(tuple)) stopped = true;
  });
  return status;
}

}  // namespace ldl
