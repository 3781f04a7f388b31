#include "eval/topdown.h"

#include "base/str_util.h"
#include "eval/bindings.h"
#include "eval/rule_eval.h"
#include "term/unify.h"

namespace ldl {

TopDownEngine::TopDownEngine(TermFactory* factory, Catalog* catalog,
                             const ProgramIr* program,
                             const Stratification* stratification,
                             const Database* edb, TopDownOptions options)
    : factory_(factory),
      catalog_(catalog),
      program_(program),
      stratification_(stratification),
      edb_(edb),
      options_(options) {
  for (const RuleIr& rule : program_->rules) {
    if (rule.head_pred >= idb_.size()) idb_.resize(rule.head_pred + 1, false);
    idb_[rule.head_pred] = true;
  }
}

bool TopDownEngine::IsIdb(PredId pred) const {
  return pred < idb_.size() && idb_[pred];
}

// Rule variables that the head unification bound to ground values.
std::vector<Symbol> TopDownEngine::BoundRuleVars(const Subst& subst) const {
  std::vector<Symbol> bound;
  for (const auto& [var, value] : subst.trail()) {
    const Term* walked = subst.Walk(value);
    if (walked->ground() && !walked->has_scons()) bound.push_back(var);
  }
  return bound;
}

const Term* TopDownEngine::CanonicalVar(size_t index) {
  while (canonical_vars_.size() <= index) {
    canonical_vars_.push_back(factory_->MakeVar(
        factory_->interner()->Intern(StrCat("$cv", canonical_vars_.size()))));
  }
  return canonical_vars_[index];
}

std::vector<const Term*> TopDownEngine::InstantiateCall(const LiteralIr& literal,
                                                        const Subst& subst,
                                                        bool* outside_universe) {
  // Instantiate under the caller's bindings, then rename residual variables
  // to the shared canonical placeholders in first-occurrence order.
  std::vector<const Term*> instantiated;
  instantiated.reserve(literal.args.size());
  std::vector<Symbol> seen;
  for (const Term* arg : literal.args) {
    const Term* inst = ApplySubst(*factory_, arg, subst);
    if (inst == nullptr) {
      // Outside U: keep symbolic. As a call pattern it only over-approximates
      // (positive answers are re-matched against the literal itself).
      inst = arg;
      if (outside_universe != nullptr) *outside_universe = true;
    }
    CollectVars(inst, &seen);
    instantiated.push_back(inst);
  }
  Subst renaming;
  for (size_t i = 0; i < seen.size(); ++i) {
    // Guard against binding a placeholder to itself (Walk would cycle).
    if (CanonicalVar(i)->symbol() == seen[i]) continue;
    renaming.Bind(seen[i], CanonicalVar(i));
  }
  std::vector<const Term*> canonical;
  canonical.reserve(instantiated.size());
  for (const Term* t : instantiated) {
    const Term* renamed = ApplySubst(*factory_, t, renaming);
    canonical.push_back(renamed == nullptr ? t : renamed);
  }
  return canonical;
}

StatusOr<TopDownEngine::TableEntry*> TopDownEngine::TableFor(
    PredId pred, const std::vector<const Term*>& pattern) {
  std::string key = StrCat(pred, "|");
  for (const Term* t : pattern) {
    factory_->AppendTo(t, &key);
    key += ',';
  }
  ++stats_.calls;
  auto [it, inserted] = tables_.try_emplace(std::move(key));
  if (inserted) {
    it->second.pred = pred;
    it->second.pattern = pattern;
  }
  return &it->second;
}

Status TopDownEngine::Insert(TableEntry* entry, const Tuple& fact) {
  if (entry->index.insert(fact).second) {
    entry->rows.push_back(fact);
    grew_ = true;
    ++stats_.answers;
    if (++total_rows_ > options_.max_table_rows) {
      return ResourceExhaustedError("top-down tables exceeded max_table_rows");
    }
  }
  return Status::OK();
}

Status TopDownEngine::SolveComplete(PredId pred,
                                    const std::vector<const Term*>& pattern,
                                    TableEntry** entry_out) {
  LDL_ASSIGN_OR_RETURN(TableEntry * entry, TableFor(pred, pattern));
  if (entry->complete) {
    *entry_out = entry;
    return Status::OK();
  }
  // Nested fixpoint: restart expansion until nothing reachable grows. Only
  // tables at or below this predicate's layer participate -- stratification
  // guarantees the subquery never consults higher strata, and tables of
  // enclosing in-progress calls (strictly higher layers) must be neither
  // reset nor marked complete.
  int layer = stratification_->layer_of_pred[pred];
  auto in_scope = [&](const TableEntry& table) {
    return stratification_->layer_of_pred[table.pred] <= layer;
  };
  size_t rounds = 0;
  bool outer_grew = grew_;
  for (;;) {
    if (++rounds > options_.max_rounds) {
      return ResourceExhaustedError("top-down fixpoint exceeded max_rounds");
    }
    ++stats_.restarts;
    for (auto& [key, table] : tables_) {
      if (!table.complete && in_scope(table)) table.started = false;
    }
    grew_ = false;
    LDL_RETURN_IF_ERROR(SolveCall(pred, pattern, 0, &entry));
    if (!grew_) break;
    outer_grew = true;
  }
  grew_ = outer_grew;
  // Everything expanded in the final (quiescent) round is now stable.
  for (auto& [key, table] : tables_) {
    if (table.started && in_scope(table)) table.complete = true;
  }
  *entry_out = entry;
  return Status::OK();
}

Status TopDownEngine::SolveCall(PredId pred,
                                const std::vector<const Term*>& pattern,
                                size_t depth, TableEntry** entry_out) {
  if (depth > options_.max_call_depth) {
    return ResourceExhaustedError("top-down recursion exceeded max_call_depth");
  }
  LDL_ASSIGN_OR_RETURN(TableEntry * entry, TableFor(pred, pattern));
  *entry_out = entry;
  if (entry->complete || entry->started) return Status::OK();
  entry->started = true;

  for (size_t r = 0; r < program_->rules.size(); ++r) {
    const RuleIr& rule = program_->rules[r];
    if (rule.head_pred != pred) continue;
    ++stats_.expansions;
    // Per-rule attribution: each expansion counts as a firing and its wall
    // time accrues to the rule, mirroring the bottom-up paths.
    RuleProfileEntry* rule_profile = nullptr;
    if (profile_ != nullptr) {
      rule_profile = &profile_->EntryFor(static_cast<int>(r),
                                         stratification_->layer_of_rule[r]);
      if (rule_profile->label.empty()) {
        rule_profile->label = FormatRuleLabel(*factory_, *catalog_, rule);
      }
      ++rule_profile->counters.firings;
    }
    ScopedWallTimer timer(
        rule_profile != nullptr ? &rule_profile->counters.wall_ns : nullptr);
    if (rule.is_grouping()) {
      LDL_RETURN_IF_ERROR(ExpandGroupingRule(rule, entry, depth));
    } else {
      LDL_RETURN_IF_ERROR(ExpandRule(rule, entry, depth));
    }
  }
  return Status::OK();
}

Status TopDownEngine::ExpandRule(const RuleIr& rule, TableEntry* entry,
                                 size_t depth) {
  // Unify head arguments with the call pattern; a mismatch prunes the rule.
  Subst subst;
  for (size_t i = 0; i < rule.head_args.size(); ++i) {
    if (!UnifyRigid(*factory_, rule.head_args[i], entry->pattern[i], &subst)) {
      return Status::OK();
    }
  }
  if (rule.is_fact()) {
    InstantiationResult inst = InstantiateArgs(*factory_, rule.head_args, subst);
    if (!inst.unbound && !inst.outside_universe) {
      return Insert(entry, inst.tuple);
    }
    return Status::OK();
  }

  // Order the body with the call's bindings: a bound call must drive
  // built-ins (e.g. partition) before its recursive subgoals, or the
  // subgoals degenerate to free calls.
  std::vector<Symbol> initially_bound = BoundRuleVars(subst);
  LDL_ASSIGN_OR_RETURN(
      std::vector<int> order,
      OrderBodyLiterals(*catalog_, rule, -1, &initially_bound));
  Status inner;
  bool keep_going = true;
  Status status = SolveBody(
      rule, order, 0, &subst, depth, /*complete_mode=*/false,
      [&](const Subst& solution) {
        InstantiationResult inst =
            InstantiateArgs(*factory_, rule.head_args, solution);
        if (inst.unbound) {
          // Head variables tied to the caller's free placeholders stay
          // unbound only if the body never constrained them; range
          // restriction makes this unreachable.
          inner = InternalError("unbound head variable in top-down expansion");
          return false;
        }
        if (!inst.outside_universe) {
          Status insert = Insert(entry, inst.tuple);
          if (!insert.ok()) {
            inner = insert;
            return false;
          }
        }
        return true;
      },
      &keep_going);
  LDL_RETURN_IF_ERROR(status);
  return inner;
}

Status TopDownEngine::ExpandGroupingRule(const RuleIr& rule, TableEntry* entry,
                                         size_t depth) {
  // Do not let a bound grouped argument restrict the body (§6, footnote 6):
  // unify every head position except the grouped one, filter afterwards.
  Subst subst;
  for (size_t i = 0; i < rule.head_args.size(); ++i) {
    if (static_cast<int>(i) == rule.group_index) continue;
    if (!UnifyRigid(*factory_, rule.head_args[i], entry->pattern[i], &subst)) {
      return Status::OK();
    }
  }

  // Z variables: the non-grouped head argument variables.
  std::vector<Symbol> z_vars;
  for (size_t i = 0; i < rule.head_args.size(); ++i) {
    if (static_cast<int>(i) == rule.group_index) continue;
    CollectVars(rule.head_args[i], &z_vars);
  }
  const Term* group_var = factory_->MakeVar(rule.group_var);

  struct Partition {
    Tuple head_values;
    std::vector<const Term*> members;
  };
  std::map<std::string, Partition> partitions;

  std::vector<Symbol> initially_bound = BoundRuleVars(subst);
  LDL_ASSIGN_OR_RETURN(
      std::vector<int> order,
      OrderBodyLiterals(*catalog_, rule, -1, &initially_bound));
  Status inner;
  bool keep_going = true;
  // Complete mode: grouping needs the full body extension for the bound
  // call; stratification keeps the nested fixpoints below this stratum.
  Status status = SolveBody(
      rule, order, 0, &subst, depth, /*complete_mode=*/true,
      [&](const Subst& solution) {
        bool ground = true;
        const Term* y = InstantiateGround(*factory_, group_var, solution, &ground);
        if (y == nullptr) {
          if (!ground) {
            inner = InternalError("grouped variable unbound in top-down body");
            return false;
          }
          return true;  // outside U
        }
        InstantiationResult head =
            InstantiateArgs(*factory_, rule.head_args, solution);
        if (head.unbound) {
          inner = InternalError("head variable unbound under top-down grouping");
          return false;
        }
        if (head.outside_universe) return true;
        std::string key;
        for (size_t i = 0; i < head.tuple.size(); ++i) {
          if (static_cast<int>(i) == rule.group_index) continue;
          factory_->AppendTo(head.tuple[i], &key);
          key += '|';
        }
        Partition& partition = partitions[key];
        if (partition.head_values.empty()) partition.head_values = head.tuple;
        partition.members.push_back(y);
        return true;
      },
      &keep_going);
  LDL_RETURN_IF_ERROR(status);
  LDL_RETURN_IF_ERROR(inner);

  for (auto& [key, partition] : partitions) {
    Tuple fact = partition.head_values;
    fact[rule.group_index] = factory_->MakeSet(partition.members);
    // Filter against the call pattern's grouped position.
    Subst check;
    bool matched = false;
    MatchTerm(*factory_, entry->pattern[rule.group_index],
              fact[rule.group_index], &check, [&]() {
                matched = true;
                return false;
              });
    if (!matched) continue;
    LDL_RETURN_IF_ERROR(Insert(entry, fact));
  }
  return Status::OK();
}

Status TopDownEngine::SolveBody(const RuleIr& rule, const std::vector<int>& order,
                                size_t k, Subst* subst, size_t depth,
                                bool complete_mode,
                                const std::function<bool(const Subst&)>& yield,
                                bool* keep_going) {
  if (k == order.size()) {
    *keep_going = yield(*subst);
    return Status::OK();
  }
  const LiteralIr& literal = rule.body[order[k]];
  Status inner;

  if (literal.is_builtin()) {
    bool builtin_keep_going = true;
    Status status = EvalBuiltin(
        *factory_, literal, subst,
        [&]() {
          Status next = SolveBody(rule, order, k + 1, subst, depth, complete_mode,
                                  yield, keep_going);
          if (!next.ok()) {
            inner = next;
            return false;
          }
          return *keep_going;
        },
        &builtin_keep_going, options_.builtin_limits);
    LDL_RETURN_IF_ERROR(status);
    return inner;
  }

  if (literal.negated) {
    // Complete the subquery, then require that nothing matches. A call
    // outside U is not a U-fact, so its negation holds (§2.2).
    bool outside_universe = false;
    std::vector<const Term*> pattern =
        InstantiateCall(literal, *subst, &outside_universe);
    bool any_match = false;
    if (outside_universe) {
      // Nothing can match.
    } else if (IsIdb(literal.pred)) {
      TableEntry* sub = nullptr;
      LDL_RETURN_IF_ERROR(SolveComplete(literal.pred, pattern, &sub));
      for (const Tuple& row : sub->rows) {
        Subst probe;
        MatchArgs(*factory_, pattern, row, &probe, [&]() {
          any_match = true;
          return false;
        });
        if (any_match) break;
      }
    } else {
      // Probe the columns the call binds to ground values, verify each
      // candidate against the whole pattern, and stop at the first match.
      const Relation& relation = edb_->relation(literal.pred);
      relation.ForEachCandidateRow(pattern, [&](size_t row) {
        ++stats_.edb_rows_matched;
        Subst probe;
        MatchArgs(*factory_, pattern, relation.row(row), &probe, [&]() {
          any_match = true;
          return false;
        });
        return !any_match;
      });
    }
    if (any_match) return Status::OK();
    return SolveBody(rule, order, k + 1, subst, depth, complete_mode, yield,
                     keep_going);
  }

  // Positive literal: match a row and solve the rest of the body under
  // each match; false once the enumeration must stop.
  auto consume_row = [&](RowRef row) {
    bool matched_keep_going =
        MatchArgs(*factory_, literal.args, row, subst, [&]() {
          Status next = SolveBody(rule, order, k + 1, subst, depth,
                                  complete_mode, yield, keep_going);
          if (!next.ok()) {
            inner = next;
            return false;
          }
          return *keep_going;
        });
    return matched_keep_going && inner.ok() && *keep_going;
  };

  if (IsIdb(literal.pred)) {
    std::vector<const Term*> pattern = InstantiateCall(literal, *subst);
    TableEntry* sub = nullptr;
    if (complete_mode) {
      LDL_RETURN_IF_ERROR(SolveComplete(literal.pred, pattern, &sub));
    } else {
      LDL_RETURN_IF_ERROR(SolveCall(literal.pred, pattern, depth + 1, &sub));
    }
    // Snapshot the size: recursive calls may append to the same table while
    // we iterate; the outer fixpoint picks up late rows.
    const size_t limit = sub->rows.size();
    for (size_t i = 0; i < limit; ++i) {
      if (!consume_row(sub->rows[i])) break;
    }
    return inner;
  }

  // EDB literal: probe the columns holding constants or bound variables.
  // Complex arguments are left to MatchArgs rather than instantiated, which
  // would intern new terms. The candidates are collected before matching:
  // solving the rest of the body may probe this relation again.
  std::vector<const Term*> bound;
  bound.reserve(literal.args.size());
  for (const Term* arg : literal.args) {
    bound.push_back(arg->is_var() ? subst->Walk(arg) : arg);
  }
  const Relation& relation = edb_->relation(literal.pred);
  std::vector<size_t> candidates;
  relation.ForEachCandidateRow(bound, [&](size_t row) {
    candidates.push_back(row);
    return true;
  });
  for (size_t row : candidates) {
    ++stats_.edb_rows_matched;
    if (!consume_row(relation.row(row))) break;
  }
  return inner;
}

StatusOr<std::vector<Tuple>> TopDownEngine::Query(const LiteralIr& goal) {
  if (goal.is_builtin() || goal.negated) {
    return InvalidArgumentError("top-down queries must be positive literals");
  }
  std::vector<const Term*> pattern = InstantiateCall(goal, Subst());
  std::vector<Tuple> results;
  if (!IsIdb(goal.pred)) {
    const Relation& relation = edb_->relation(goal.pred);
    Subst subst;
    relation.ForEachCandidateRow(goal.args, [&](size_t row) {
      ++stats_.edb_rows_matched;
      RowRef tuple = relation.row(row);
      MatchArgs(*factory_, goal.args, tuple, &subst, [&]() {
        results.emplace_back(tuple.begin(), tuple.end());
        return false;
      });
      return true;
    });
    return results;
  }
  TableEntry* entry = nullptr;
  LDL_RETURN_IF_ERROR(SolveComplete(goal.pred, pattern, &entry));
  Subst subst;
  for (const Tuple& row : entry->rows) {
    MatchArgs(*factory_, goal.args, row, &subst, [&]() {
      results.push_back(row);
      return false;
    });
  }
  return results;
}

}  // namespace ldl
