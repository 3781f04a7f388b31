#include "eval/engine.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "base/str_util.h"
#include "eval/batch.h"
#include "eval/bindings.h"
#include "eval/cost.h"
#include "program/impact.h"
#include "term/unify.h"

namespace ldl {

namespace {

// Body literal occurrences whose predicate is in `idb` (candidates for
// semi-naive delta positioning).
std::vector<int> RecursiveOccurrences(const RuleIr& rule,
                                      const std::vector<bool>& idb) {
  std::vector<int> result;
  for (size_t i = 0; i < rule.body.size(); ++i) {
    const LiteralIr& literal = rule.body[i];
    if (!literal.is_builtin() && !literal.negated && literal.pred < idb.size() &&
        idb[literal.pred]) {
      result.push_back(static_cast<int>(i));
    }
  }
  return result;
}

// Rounds a cardinality estimate into a profile counter (est_rows).
uint64_t EstimateToCounter(double est) {
  if (!(est > 0.0)) return 0;  // also filters NaN
  return static_cast<uint64_t>(std::llround(std::min(est, 9e18)));
}

// Folds the counters one rule application collected into the rule's profile
// entry (the EvalStats fields that have a per-rule meaning).
void AttributeStats(RuleProfileEntry* entry, const EvalStats& run) {
  RuleProfile& counters = entry->counters;
  counters.solutions += run.solutions;
  counters.facts_derived += run.facts_derived;
  counters.tuples_matched += run.tuples_matched;
  counters.index_probes += run.index_probes;
  counters.probe_hits += run.probe_hits;
  counters.groups_built += run.groups_built;
  counters.groups_reused += run.groups_reused;
  counters.group_regrows += run.group_regrows;
}

// Accumulates the factory's set-intern delta across a scope into
// EvalStats::set_interns. The count of *distinct* sets interned by an
// evaluation is determined by the computed model, so the counter is as
// deterministic as the model itself.
class ScopedSetInternCounter {
 public:
  ScopedSetInternCounter(const TermFactory* factory, EvalStats* stats)
      : factory_(factory), stats_(stats),
        before_(factory->set_interned_count()) {}
  ~ScopedSetInternCounter() {
    stats_->set_interns += factory_->set_interned_count() - before_;
  }

 private:
  const TermFactory* factory_;
  EvalStats* stats_;
  size_t before_;
};

// Times one stratum (or the saturating evaluator's pseudo-stratum -1) and
// records the rounds and facts it adds to the evaluation totals. Finish()
// appends the rollup to the profile; a stratum that fails records none.
// Inert when profiling is off.
class StratumRollup {
 public:
  StratumRollup(EvalProfile* profile, const EvalStats* stats, int stratum,
                StratumMode mode)
      : profile_(profile),
        stats_(stats),
        rollup_{stratum, mode},
        timer_(profile != nullptr ? &rollup_.wall_ns : nullptr),
        rounds_before_(stats->iterations),
        facts_before_(stats->facts_derived) {}

  void Finish() {
    if (profile_ == nullptr) return;
    timer_.Stop();
    rollup_.rounds = stats_->iterations - rounds_before_;
    rollup_.facts_derived = stats_->facts_derived - facts_before_;
    profile_->strata().push_back(rollup_);
  }

 private:
  EvalProfile* profile_;
  const EvalStats* stats_;
  StratumProfile rollup_;
  ScopedWallTimer timer_;
  uint64_t rounds_before_;
  uint64_t facts_before_;
};

// Enumerates `executor`'s body solutions into `produced`, one head row per
// solution. Productions are buffered -- inserting while enumerating would
// invalidate row references for self-recursive rules -- and outside-U heads
// are skipped. Simple heads are built straight from plan slots
// (EmitHeadBlock); complex heads instantiate per row.
Status EnumerateIntoRows(BlockExecutor& executor, const Database& db,
                         const std::vector<LiteralWindow>& windows,
                         RowBuffer* produced, EvalStats* stats) {
  const JoinPlan& plan = executor.plan();
  Status inner;
  LDL_RETURN_IF_ERROR(executor.Run(
      db, windows,
      [&](const TupleBlock& block) {
        if (plan.head_simple()) {
          if (!EmitHeadBlock(plan, block, produced)) {
            inner = InternalError("head variable unbound in a body solution");
            return false;
          }
          return true;
        }
        for (uint32_t idx : block.sel()) {
          InstantiationResult inst = executor.InstantiateHead(block.row(idx));
          if (inst.unbound) {
            inner = InternalError("head variable unbound in a body solution");
            return false;
          }
          if (!inst.outside_universe) produced->AppendRow(inst.tuple.data());
        }
        return true;
      },
      stats));
  return inner;
}

}  // namespace

RuleProfileEntry* Engine::ProfileEntry(EvalProfile* profile, const RuleIr& rule,
                                       int rule_index, int stratum) {
  if (profile == nullptr) return nullptr;
  RuleProfileEntry& entry = profile->EntryFor(rule_index, stratum);
  if (entry.label.empty()) {
    entry.label = FormatRuleLabel(*factory_, *catalog_, rule);
  }
  return &entry;
}

Status Engine::ApplyRule(const RuleIr& rule, const std::vector<int>& order,
                         const std::vector<LiteralWindow>& windows, Database* db,
                         const EvalOptions& options, EvalStats* stats,
                         bool* derived, RuleProfileEntry* entry) {
  // When profiling, counters collect into a rule-local EvalStats first so
  // this application's share can be attributed before folding into the
  // evaluation totals.
  EvalStats local_stats;
  EvalStats* s = entry != nullptr ? &local_stats : stats;
  ScopedWallTimer timer(entry != nullptr ? &entry->counters.wall_ns : nullptr);

  BlockExecutor executor(factory_, &rule,
                         plans_->Get(rule, order, &s->plan_cache_hits),
                         options.builtin_limits);
  ++s->rule_firings;

  RowBuffer produced(rule.head_args.size());
  LDL_RETURN_IF_ERROR(EnumerateIntoRows(executor, *db, windows, &produced, s));

  for (size_t i = 0; i < produced.size(); ++i) {
    if (db->AddFact(rule.head_pred, produced.row(i))) {
      *derived = true;
      ++s->facts_derived;
    }
  }
  if (entry != nullptr) {
    ++entry->counters.firings;
    AttributeStats(entry, local_stats);
    stats->Add(local_stats);
  }
  if (db->TotalFacts() > options.max_facts) {
    return ResourceExhaustedError(
        StrCat("database exceeded max_facts = ", options.max_facts,
               " (non-terminating program?)"));
  }
  return Status::OK();
}

Status Engine::ApplyGroupingRule(const RuleIr& rule, Database* db,
                                 const EvalOptions& options, EvalStats* stats,
                                 bool* derived, RuleProfileEntry* entry) {
  EvalStats local_stats;
  EvalStats* s = entry != nullptr ? &local_stats : stats;
  ScopedWallTimer timer(entry != nullptr ? &entry->counters.wall_ns : nullptr);

  // A grouping rule's body reads only strictly lower layers, which no rule
  // of this stratum mutates, so this snapshot prices the stratum's input
  // model whichever grouping rule fires first.
  std::vector<int> order;
  if (options.cost_based) {
    LDL_ASSIGN_OR_RETURN(
        order, OrderBodyLiteralsCostBased(*catalog_, rule,
                                          CostModel::Snapshot(*db, *catalog_)));
  } else {
    LDL_ASSIGN_OR_RETURN(order, OrderBodyLiterals(*catalog_, rule));
  }
  BlockExecutor executor(factory_, &rule,
                         plans_->Get(rule, order, &s->plan_cache_hits),
                         options.builtin_limits);
  ++s->rule_firings;
  LDL_ASSIGN_OR_RETURN(std::vector<GroupResult> groups,
                       ComputeGroups(*factory_, executor, *db, s));
  for (const GroupResult& group : groups) {
    if (db->AddFact(rule.head_pred, group.fact)) {
      *derived = true;
      ++s->facts_derived;
    }
  }
  if (entry != nullptr) {
    ++entry->counters.firings;
    AttributeStats(entry, local_stats);
    stats->Add(local_stats);
  }
  return Status::OK();
}

Status Engine::Fixpoint(const ProgramIr& program, const std::vector<int>& rule_indices,
                        int stratum_index, Database* db, const EvalOptions& options,
                        EvalStats* stats, bool* derived_any, EvalProfile* profile,
                        const FixpointSeed* seed) {
  // Predicate count, read once: concurrent magic rewrites may register new
  // predicates in a shared catalog mid-call, and every per-predicate vector
  // below is sized (and iterated) by this count.
  const size_t pred_count = catalog_->size();
  // IDB predicates of this fixpoint: heads of the participating rules.
  std::vector<bool> idb(pred_count, false);
  for (int r : rule_indices) idb[program.rules[r].head_pred] = true;

  // Delta carriers: the IDB heads, plus the seed's externally changed
  // predicates when resuming incrementally.
  std::vector<bool> delta_preds = idb;
  if (seed != nullptr) {
    for (PredId p = 0; p < delta_preds.size() && p < seed->delta_preds->size();
         ++p) {
      if ((*seed->delta_preds)[p]) delta_preds[p] = true;
    }
  }
  // A seeded resume always runs the semi-naive machinery: the model is
  // already a fixpoint over the pre-update inputs, so only the delta rows
  // can produce anything new.
  const bool seminaive =
      options.mode == EvalOptions::Mode::kSemiNaive || seed != nullptr;

  struct Compiled {
    const RuleIr* rule;
    std::vector<int> default_order;
    // (occurrence, order) pairs for semi-naive delta variants.
    std::vector<std::pair<int, std::vector<int>>> delta_variants;
    // Whether each variant has an ordering choice at all: with fewer than
    // two positive literals besides the pinned occurrence there is nothing
    // to reorder, and the per-round replanning pass (snapshot + re-cost)
    // skips the variant -- this keeps the planner's per-round overhead at
    // zero for the common linear-recursion shape.
    std::vector<bool> replannable;
    // Profile entry (null when profiling is off); cached across rounds, so
    // the profile's rule table must not reallocate (ReserveRules).
    RuleProfileEntry* entry = nullptr;
  };
  // Entry-time cost model for the initial order choice, taken before round
  // 0 touches the database. Seeded resumes (the incremental insert/delete
  // paths) always order syntactically: their windows are tiny, so per-call
  // planning would dominate the microsecond-scale maintenance work it is
  // meant to save.
  const bool cost_based = options.cost_based && seed == nullptr;
  CostModel entry_model;
  if (cost_based) entry_model = CostModel::Snapshot(*db, *catalog_);
  auto choose_order = [&](const RuleIr& rule,
                          int forced) -> StatusOr<std::vector<int>> {
    if (!cost_based) return OrderBodyLiterals(*catalog_, rule, forced);
    StatusOr<std::vector<int>> order =
        OrderBodyLiteralsCostBased(*catalog_, rule, entry_model, forced);
    if (order.ok()) {
      // Observability: count adopted cost-based orders that differ from
      // what the syntactic heuristic would have picked.
      StatusOr<std::vector<int>> syntactic =
          OrderBodyLiterals(*catalog_, rule, forced);
      if (syntactic.ok() && syntactic.value() != order.value()) {
        ++stats->plans_reordered;
      }
    }
    return order;
  };

  std::vector<Compiled> compiled;
  compiled.reserve(rule_indices.size());
  for (int r : rule_indices) {
    const RuleIr& rule = program.rules[r];
    Compiled c;
    c.rule = &rule;
    c.entry = ProfileEntry(profile, rule, r, stratum_index);
    LDL_ASSIGN_OR_RETURN(c.default_order, choose_order(rule, -1));
    if (c.entry != nullptr && cost_based) {
      // Round 0 applies the default order over the full database; log its
      // estimate so mis-estimates show up next to `solutions`.
      c.entry->counters.est_rows += EstimateToCounter(
          EstimateOrderCost(rule, c.default_order, entry_model).out_rows);
    }
    if (seminaive) {
      int positives = 0;
      for (const LiteralIr& literal : rule.body) {
        if (!literal.is_builtin() && !literal.negated) ++positives;
      }
      for (int occurrence : RecursiveOccurrences(rule, delta_preds)) {
        c.replannable.push_back(positives >= 3);
        StatusOr<std::vector<int>> order = choose_order(rule, occurrence);
        if (!order.ok()) {
          // Windows bind to body positions, not evaluation slots, so the
          // default order stays correct for any delta occurrence; forcing
          // the occurrence first is only a join-ordering optimization. Fall
          // back when a seeded occurrence (e.g. an EDB predicate the
          // default analysis never fronts) has no evaluable forced order.
          if (seed == nullptr) return order.status();
          c.delta_variants.emplace_back(occurrence, c.default_order);
          continue;
        }
        c.delta_variants.emplace_back(occurrence, std::move(order).value());
      }
    }
    compiled.push_back(std::move(c));
  }

  // Low watermarks: from scratch, round 0 consumes everything and the
  // deltas start at the pre-round row counts; a seeded resume starts each
  // delta carrier at its previous-evaluation watermark so the first round
  // consumes exactly the inserted rows.
  std::vector<size_t> low(pred_count, 0);
  for (PredId p = 0; p < pred_count; ++p) {
    if (!delta_preds[p]) continue;
    if (seed != nullptr) {
      size_t mark =
          p < seed->watermarks->size() ? (*seed->watermarks)[p] : 0;
      low[p] = std::min(mark, db->relation(p).row_count());
    } else if (seminaive) {
      low[p] = db->relation(p).row_count();
    }
  }
  // A full round (round 0 and every naive round): every rule applied
  // against explicit [0, row_count) round-start windows, so rule N never sees
  // rule N-1's (or its own) same-round inserts -- every rule of a round reads
  // the same round-start state (DESIGN.md §5).
  auto full_round = [&](bool* derived) -> Status {
    std::vector<size_t> snap(pred_count);
    for (PredId p = 0; p < pred_count; ++p) {
      snap[p] = db->relation(p).row_count();
    }
    for (const Compiled& c : compiled) {
      std::vector<LiteralWindow> windows(c.rule->body.size());
      for (size_t i = 0; i < c.rule->body.size(); ++i) {
        const LiteralIr& literal = c.rule->body[i];
        if (!literal.is_builtin() && !literal.negated) {
          windows[i] = {0, snap[literal.pred]};
        }
      }
      LDL_RETURN_IF_ERROR(ApplyRule(*c.rule, c.default_order, windows, db,
                                    options, stats, derived, c.entry));
    }
    return Status::OK();
  };

  bool derived = false;
  if (seed == nullptr) {
    // Round 0: every rule over the full database. A seeded resume skips it;
    // the database already holds the pre-update fixpoint.
    LDL_RETURN_IF_ERROR(full_round(&derived));
    *derived_any = *derived_any || derived;
    ++stats->iterations;
  }

  if (!seminaive) {
    while (derived) {
      if (stats->iterations >= options.max_rounds) {
        return ResourceExhaustedError("fixpoint exceeded max_rounds");
      }
      derived = false;
      LDL_RETURN_IF_ERROR(full_round(&derived));
      *derived_any = *derived_any || derived;
      ++stats->iterations;
    }
    return Status::OK();
  }

  // Semi-naive rounds: one body occurrence ranges over the delta window,
  // everything else over the full relation.
  for (;;) {
    if (stats->iterations >= options.max_rounds) {
      return ResourceExhaustedError("fixpoint exceeded max_rounds");
    }
    // Snapshot delta windows [low, high) per predicate.
    std::vector<size_t> high(pred_count, 0);
    bool any_delta = false;
    for (PredId p = 0; p < pred_count; ++p) {
      if (!delta_preds[p]) continue;
      high[p] = db->relation(p).row_count();
      if (high[p] > low[p]) any_delta = true;
    }
    if (!any_delta) break;

    // Adaptive replanning: delta windows have wildly different
    // cardinalities than the full relations the entry-time orders were
    // priced against, and the balance drifts as the fixpoint grows the IDB.
    // Re-cost each live delta variant against this round's window sizes
    // ([low, high) for the pinned occurrence, [0, low) for later carriers)
    // and switch its order when the current one is estimated at more than
    // replan_cost_ratio times the best. Every input is a round-start
    // snapshot, so replanning is as deterministic as the round itself.
    // Variants with no ordering choice (fewer than two movable positives)
    // are skipped wholesale; when none qualifies the snapshot is never
    // taken, so linear recursion pays nothing per round.
    bool any_replannable = false;
    if (cost_based) {
      for (const Compiled& c : compiled) {
        for (size_t v = 0; v < c.delta_variants.size(); ++v) {
          if (c.replannable[v]) any_replannable = true;
        }
      }
    }
    if (cost_based && any_replannable) {
      CostModel round_model = CostModel::Snapshot(*db, *catalog_);
      std::vector<double> literal_rows;  // per body position; < 0 = model
      for (Compiled& c : compiled) {
        for (size_t v = 0; v < c.delta_variants.size(); ++v) {
          if (!c.replannable[v]) continue;
          auto& [occurrence, order] = c.delta_variants[v];
          PredId delta_pred = c.rule->body[occurrence].pred;
          if (high[delta_pred] <= low[delta_pred]) continue;
          literal_rows.assign(c.rule->body.size(), -1.0);
          for (size_t i = 0; i < c.rule->body.size(); ++i) {
            const LiteralIr& literal = c.rule->body[i];
            if (literal.is_builtin() || literal.negated) continue;
            if (static_cast<int>(i) > occurrence &&
                literal.pred < delta_preds.size() &&
                delta_preds[literal.pred]) {
              literal_rows[i] = static_cast<double>(low[literal.pred]);
            }
          }
          literal_rows[occurrence] =
              static_cast<double>(high[delta_pred] - low[delta_pred]);
          OrderCost current_cost =
              EstimateOrderCost(*c.rule, order, round_model, &literal_rows);
          StatusOr<std::vector<int>> best = OrderBodyLiteralsCostBased(
              *catalog_, *c.rule, round_model, occurrence,
              /*initially_bound=*/nullptr, &literal_rows);
          // A failed forced order keeps the current (fallback) one.
          if (best.ok() && best.value() != order) {
            OrderCost best_cost = EstimateOrderCost(*c.rule, best.value(),
                                                    round_model, &literal_rows);
            if (current_cost.total_work >
                options.replan_cost_ratio * best_cost.total_work) {
              order = std::move(best).value();
              current_cost = best_cost;
              ++stats->replans;
            }
          }
          if (c.entry != nullptr) {
            c.entry->counters.est_rows +=
                EstimateToCounter(current_cost.out_rows);
          }
        }
      }
    }

    // Round-start snapshot for the non-delta occurrences: every positive
    // literal is pinned to [0, row_count-at-round-start) (the delta
    // occurrence to its [low, high) slice), so no variant sees another's
    // same-round inserts.
    //
    // Exact decomposition across delta carriers: when several body
    // positions carry deltas, the variant pinning occurrence i gives
    // carrier positions *before* i the full round-start window (NEW) and
    // carrier positions *after* i only the pre-round rows (OLD,
    // [0, low)). Every solution touching >= 1 delta row is then found by
    // exactly one variant -- the one pinning its *first* delta position --
    // so derivation counts stay exact under multi-delta joins.
    derived = false;
    std::vector<size_t> snap(pred_count);
    for (PredId p = 0; p < pred_count; ++p) {
      snap[p] = db->relation(p).row_count();
    }
    for (const Compiled& c : compiled) {
      for (const auto& [occurrence, order] : c.delta_variants) {
        PredId delta_pred = c.rule->body[occurrence].pred;
        if (high[delta_pred] <= low[delta_pred]) continue;
        std::vector<LiteralWindow> windows(c.rule->body.size());
        for (size_t i = 0; i < c.rule->body.size(); ++i) {
          const LiteralIr& literal = c.rule->body[i];
          if (!literal.is_builtin() && !literal.negated) {
            const bool carrier = literal.pred < delta_preds.size() &&
                                 delta_preds[literal.pred];
            windows[i] = carrier && static_cast<int>(i) > occurrence
                             ? LiteralWindow{0, low[literal.pred]}
                             : LiteralWindow{0, snap[literal.pred]};
          }
        }
        windows[occurrence] = {low[delta_pred], high[delta_pred]};
        if (c.entry != nullptr) {
          c.entry->counters.delta_rows += high[delta_pred] - low[delta_pred];
        }
        LDL_RETURN_IF_ERROR(ApplyRule(*c.rule, order, windows, db, options,
                                      stats, &derived, c.entry));
      }
    }
    for (PredId p = 0; p < pred_count; ++p) {
      if (delta_preds[p]) low[p] = high[p];
    }
    *derived_any = *derived_any || derived;
    ++stats->iterations;
  }
  return Status::OK();
}

Status Engine::EvaluateStratum(const ProgramIr& program, const std::vector<int>& rules,
                               int stratum_index, Database* db,
                               const EvalOptions& options, EvalStats* stats,
                               EvalProfile* profile) {
  StratumRollup rollup(profile, stats, stratum_index, StratumMode::kFull);
  std::vector<int> grouping_rules;
  std::vector<int> normal_rules;
  bool derived = false;
  for (int r : rules) {
    const RuleIr& rule = program.rules[r];
    if (rule.is_fact()) {
      InstantiationResult inst = InstantiateArgs(*factory_, rule.head_args, Subst());
      if (inst.unbound) {
        return NotWellFormedError("fact with unbound variables");
      }
      RuleProfileEntry* entry = ProfileEntry(profile, rule, r, stratum_index);
      if (entry != nullptr) ++entry->counters.firings;
      if (!inst.outside_universe && db->AddFact(rule.head_pred, inst.tuple)) {
        ++stats->facts_derived;
        if (entry != nullptr) ++entry->counters.facts_derived;
      }
    } else if (rule.is_grouping()) {
      grouping_rules.push_back(r);
    } else {
      normal_rules.push_back(r);
    }
  }

  // Lemma 3.2.3: grouping rules fire once, over the stratum's input model
  // (their bodies depend only on strictly lower layers).
  for (int r : grouping_rules) {
    LDL_RETURN_IF_ERROR(ApplyGroupingRule(
        program.rules[r], db, options, stats, &derived,
        ProfileEntry(profile, program.rules[r], r, stratum_index)));
  }
  if (!normal_rules.empty()) {
    LDL_RETURN_IF_ERROR(Fixpoint(program, normal_rules, stratum_index, db,
                                 options, stats, &derived, profile));
  }
  rollup.Finish();
  return Status::OK();
}

Status Engine::EvaluateStratumDelta(const ProgramIr& program,
                                    const std::vector<int>& rules,
                                    int stratum_index, Database* db,
                                    const FixpointSeed& seed,
                                    const EvalOptions& options, EvalStats* stats,
                                    EvalProfile* profile) {
  StratumRollup rollup(profile, stats, stratum_index, StratumMode::kDelta);
  // Facts and grouping rules contribute nothing here: their inputs are
  // unchanged (a grouping rule with an affected body makes the whole
  // stratum kRecompute), so only the normal rules resume.
  std::vector<int> normal_rules;
  for (int r : rules) {
    const RuleIr& rule = program.rules[r];
    if (!rule.is_fact() && !rule.is_grouping()) normal_rules.push_back(r);
  }
  bool derived = false;
  if (!normal_rules.empty()) {
    LDL_RETURN_IF_ERROR(Fixpoint(program, normal_rules, stratum_index, db,
                                 options, stats, &derived, profile, &seed));
  }
  rollup.Finish();
  return Status::OK();
}

Status Engine::RegrowGroupingRule(const RuleIr& rule, Database* db,
                                  const FixpointSeed& seed,
                                  const EvalOptions& options, EvalStats* stats,
                                  bool* derived, RuleProfileEntry* entry) {
  EvalStats local_stats;
  EvalStats* s = entry != nullptr ? &local_stats : stats;
  ScopedWallTimer timer(entry != nullptr ? &entry->counters.wall_ns : nullptr);

  // Partitions exactly as ComputeGroups does (eval/grouping.h). Instantiation
  // through the interner makes key -> non-group head values injective, so
  // the key identifies the one head fact to replace.
  GroupCollector collector(factory_, rule);

  // Delta enumeration (semi-naive completeness): any body solution that
  // involves at least one inserted row is found by the variant pinning that
  // occurrence to its [watermark, row_count) window. A solution seen by
  // several variants contributes duplicate members, which the set union
  // absorbs; solutions made only of pre-update rows are already reflected
  // in the materialized groups and are never re-enumerated.
  for (size_t occurrence = 0; occurrence < rule.body.size(); ++occurrence) {
    const LiteralIr& occ_literal = rule.body[occurrence];
    if (occ_literal.is_builtin()) continue;  // eligibility bars negation
    PredId pred = occ_literal.pred;
    if (pred >= seed.delta_preds->size() || !(*seed.delta_preds)[pred]) {
      continue;
    }
    const size_t mark =
        pred < seed.watermarks->size() ? (*seed.watermarks)[pred] : 0;
    const size_t rows = db->relation(pred).row_count();
    if (mark >= rows) continue;

    // Fronting the delta occurrence is only a join-order optimization; fall
    // back to the default order when no forced order is evaluable.
    std::vector<int> order;
    StatusOr<std::vector<int>> forced =
        OrderBodyLiterals(*catalog_, rule, static_cast<int>(occurrence));
    if (forced.ok()) {
      order = std::move(forced).value();
    } else {
      LDL_ASSIGN_OR_RETURN(order, OrderBodyLiterals(*catalog_, rule));
    }
    BlockExecutor executor(factory_, &rule,
                           plans_->Get(rule, order, &s->plan_cache_hits),
                           options.builtin_limits);
    ++s->rule_firings;

    std::vector<LiteralWindow> windows(rule.body.size());
    for (size_t j = 0; j < rule.body.size(); ++j) {
      const LiteralIr& literal = rule.body[j];
      if (!literal.is_builtin()) {
        windows[j] = {0, db->relation(literal.pred).row_count()};
      }
    }
    windows[occurrence] = {mark, rows};
    if (entry != nullptr) entry->counters.delta_rows += rows - mark;

    Status inner;
    LDL_RETURN_IF_ERROR(executor.Run(
        *db, windows,
        [&](const TupleBlock& block) {
          inner = collector.AddBlock(executor, block);
          return inner.ok();
        },
        s));
    LDL_RETURN_IF_ERROR(inner);
  }

  // Reconcile each affected partition against the materialized head fact:
  // union the delta members into the existing group (a merge over two
  // canonical sets), replacing the old row; a fresh key inserts a new
  // group. Untouched partitions are never visited -- that is the point.
  Relation& head_rel = db->relation(rule.head_pred);
  std::vector<uint32_t> non_group_cols;
  for (size_t i = 0; i < rule.head_args.size(); ++i) {
    if (static_cast<int>(i) != rule.group_index) {
      non_group_cols.push_back(static_cast<uint32_t>(i));
    }
  }
  for (auto& [partition_key, partition] : collector.partitions()) {
    const Term* delta_set = partition.members.Build();
    Tuple old_fact;
    bool found = false;
    const size_t head_rows = head_rel.row_count();
    if (non_group_cols.empty()) {
      // Head is just the grouped set: at most one live row exists.
      head_rel.ForEachRow(0, head_rows, [&](size_t, RowRef row) {
        old_fact.assign(row.begin(), row.end());
        found = true;
      });
    } else {
      Tuple probe_values;
      probe_values.reserve(non_group_cols.size());
      for (uint32_t c : non_group_cols) {
        probe_values.push_back(partition.head_values[c]);
      }
      ++s->index_probes;
      head_rel.ProbeRows(non_group_cols, probe_values, 0, head_rows,
                         [&](size_t row_index) {
                           RowRef row = head_rel.row(row_index);
                           old_fact.assign(row.begin(), row.end());
                           found = true;
                           return false;  // sole producer: row is unique
                         });
      if (found) ++s->probe_hits;
    }
    Tuple new_fact = std::move(partition.head_values);
    if (found) {
      const Term* old_set = old_fact[rule.group_index];
      if (!old_set->is_set()) {
        return InternalError(
            "regrow found a non-set value in a grouped head position");
      }
      const Term* new_set = factory_->SetUnion(old_set, delta_set);
      if (new_set == old_set) continue;  // only duplicate members: no change
      new_fact[rule.group_index] = new_set;
      head_rel.Erase(old_fact);
    } else {
      new_fact[rule.group_index] = delta_set;
    }
    if (db->AddFact(rule.head_pred, new_fact)) ++s->facts_derived;
    ++s->group_regrows;
    *derived = true;
  }

  if (entry != nullptr) {
    ++entry->counters.firings;
    AttributeStats(entry, local_stats);
    stats->Add(local_stats);
  }
  if (db->TotalFacts() > options.max_facts) {
    return ResourceExhaustedError(
        StrCat("database exceeded max_facts = ", options.max_facts,
               " (non-terminating program?)"));
  }
  return Status::OK();
}

Status Engine::EvaluateStratumGroupRegrow(
    const ProgramIr& program, const std::vector<int>& rules, int stratum_index,
    Database* db, const FixpointSeed& seed,
    const std::vector<PredImpact>& impact, const EvalOptions& options,
    EvalStats* stats, EvalProfile* profile) {
  StratumRollup rollup(profile, stats, stratum_index,
                       StratumMode::kGroupRegrow);
  // Facts are already materialized. Grouping rules with a kGroupRegrow head
  // regrow in place; grouping rules whose inputs are untouched are skipped.
  // The remaining normal rules have kDelta heads at worst (any consumer of
  // a regrown predicate is escalated to kRecompute by ComputeImpact, which
  // would have made the whole stratum kRecompute), so they resume the
  // seeded semi-naive fixpoint.
  std::vector<int> normal_rules;
  bool derived = false;
  for (int r : rules) {
    const RuleIr& rule = program.rules[r];
    if (rule.is_fact()) continue;
    if (rule.is_grouping()) {
      if (impact[rule.head_pred] != PredImpact::kGroupRegrow) continue;
      LDL_RETURN_IF_ERROR(
          RegrowGroupingRule(rule, db, seed, options, stats, &derived,
                             ProfileEntry(profile, rule, r, stratum_index)));
    } else {
      normal_rules.push_back(r);
    }
  }
  if (!normal_rules.empty()) {
    LDL_RETURN_IF_ERROR(Fixpoint(program, normal_rules, stratum_index, db,
                                 options, stats, &derived, profile, &seed));
  }
  rollup.Finish();
  return Status::OK();
}

Status Engine::EvaluateStratumShrink(
    const ProgramIr& program, const std::vector<int>& rules, int stratum_index,
    Database* db, const FixpointSeed& seed,
    std::vector<std::vector<size_t>>* removed_rows, const EvalOptions& options,
    EvalStats* stats, EvalProfile* profile) {
  StratumRollup rollup(profile, stats, stratum_index, StratumMode::kShrink);
  // Drop ledger entries whose rows came back: a lower stratum's rederive or
  // insert resume can revive a row an earlier phase deleted, and a revived
  // row is no longer a deletion. (The row_count guard covers relations a
  // recomputed stratum cleared, which invalidates old row ids.)
  for (PredId p = 0; p < removed_rows->size(); ++p) {
    std::vector<size_t>& rows = (*removed_rows)[p];
    if (rows.empty()) continue;
    const Relation& rel = db->relation(p);
    rows.erase(std::remove_if(rows.begin(), rows.end(),
                              [&](size_t row) {
                                return row >= rel.row_count() || rel.IsLive(row);
                              }),
               rows.end());
  }

  // Facts never lose support, and grouping rules only appear here with
  // untouched inputs (a shrunk grouping input escalates the stratum to
  // kRecompute), so like the delta path only the normal rules participate
  // in deletion; fact rules still guarantee their tuples survive.
  std::vector<int> normal_rules;
  std::vector<int> fact_rules;
  std::vector<bool> is_head(catalog_->size(), false);
  for (int r : rules) {
    const RuleIr& rule = program.rules[r];
    if (rule.is_fact()) {
      fact_rules.push_back(r);
    } else if (!rule.is_grouping()) {
      normal_rules.push_back(r);
      is_head[rule.head_pred] = true;
    }
  }

  auto has_deletions = [&](PredId p) {
    return p < removed_rows->size() && !(*removed_rows)[p].empty();
  };
  // The pre-update ("old") extent of a body predicate: rows below the
  // previous evaluation's watermark. Rows past it are this batch's
  // insertions (or their consequences), which the old model never saw.
  auto watermark_of = [&](PredId p) {
    size_t mark = p < seed.watermarks->size() ? (*seed.watermarks)[p] : 0;
    return std::min(mark, db->relation(p).row_count());
  };

  // Rules that can lose solutions: at least one positive occurrence of a
  // predicate with settled deletions below.
  std::vector<int> affected_rules;
  bool recursive = false;
  for (int r : normal_rules) {
    const RuleIr& rule = program.rules[r];
    bool affected = false;
    for (const LiteralIr& literal : rule.body) {
      if (literal.is_builtin() || literal.negated) continue;
      if (has_deletions(literal.pred)) affected = true;
      if (literal.pred < is_head.size() && is_head[literal.pred]) {
        recursive = true;
      }
    }
    if (affected) affected_rules.push_back(r);
  }

  // Counting fast path eligibility: every affected head carries exact
  // derivation counts, the stratum is non-recursive (a recursive fixpoint's
  // counts were never enabled anyway, but the check keeps the reasoning
  // local), and no affected rule mentions a deleted predicate in more than
  // one positive position -- the deletion decomposition below pins one
  // occurrence per variant and relies on the same predicate not appearing
  // elsewhere in the body with a different liveness requirement.
  bool counting = !affected_rules.empty() && !recursive;
  for (int r : affected_rules) {
    if (!counting) break;
    const RuleIr& rule = program.rules[r];
    if (!db->relation(rule.head_pred).counted()) counting = false;
    for (size_t i = 0; i < rule.body.size() && counting; ++i) {
      const LiteralIr& a = rule.body[i];
      if (a.is_builtin() || a.negated || !has_deletions(a.pred)) continue;
      for (size_t j = i + 1; j < rule.body.size(); ++j) {
        const LiteralIr& b = rule.body[j];
        if (!b.is_builtin() && !b.negated && b.pred == a.pred) {
          counting = false;
          break;
        }
      }
    }
  }

  if (counting) {
    // ---- Counting fast path: each solution of the old model that involved
    // a deleted row decrements its head fact's derivation count; a fact
    // whose count reaches zero is deleted in turn. The decomposition
    // mirrors the insert-side one: the variant pinning deleted-carrier
    // occurrence i sees the deleted rows of carrier positions *before* i
    // (transiently revived) and not those *after* i, so each lost solution
    // is decremented exactly once. The watermark cap excludes this batch's
    // insertions everywhere: solutions involving them were never counted
    // (the insert resume below adds them against the post-deletion state).
    for (int r : affected_rules) {
      const RuleIr& rule = program.rules[r];
      RuleProfileEntry* entry = ProfileEntry(profile, rule, r, stratum_index);
      Relation& head_rel = db->relation(rule.head_pred);
      for (size_t occurrence = 0; occurrence < rule.body.size(); ++occurrence) {
        const LiteralIr& occ_literal = rule.body[occurrence];
        if (occ_literal.is_builtin() || occ_literal.negated ||
            !has_deletions(occ_literal.pred)) {
          continue;
        }
        // Fronting the pinned occurrence is only a join-order optimization;
        // fall back to the default order when no forced order is evaluable.
        std::vector<int> order;
        StatusOr<std::vector<int>> forced =
            OrderBodyLiterals(*catalog_, rule, static_cast<int>(occurrence));
        if (forced.ok()) {
          order = std::move(forced).value();
        } else {
          LDL_ASSIGN_OR_RETURN(order, OrderBodyLiterals(*catalog_, rule));
        }
        BlockExecutor executor(factory_, &rule,
                               plans_->Get(rule, order, &stats->plan_cache_hits),
                               options.builtin_limits);

        std::vector<std::pair<Relation*, size_t>> revived;
        for (size_t j = 0; j < occurrence; ++j) {
          const LiteralIr& literal = rule.body[j];
          if (literal.is_builtin() || literal.negated ||
              !has_deletions(literal.pred)) {
            continue;
          }
          Relation& rel = db->relation(literal.pred);
          for (size_t row : (*removed_rows)[literal.pred]) {
            rel.SetLive(row, true);
            revived.emplace_back(&rel, row);
          }
        }
        std::vector<LiteralWindow> windows(rule.body.size());
        for (size_t j = 0; j < rule.body.size(); ++j) {
          const LiteralIr& literal = rule.body[j];
          if (!literal.is_builtin() && !literal.negated) {
            windows[j] = {0, watermark_of(literal.pred)};
          }
        }
        ++stats->rule_firings;
        if (entry != nullptr) {
          ++entry->counters.firings;
          entry->counters.delta_rows +=
              (*removed_rows)[occ_literal.pred].size();
        }
        Relation& occ_rel = db->relation(occ_literal.pred);
        RowBuffer lost(rule.head_args.size());
        Status status;
        for (size_t rid : (*removed_rows)[occ_literal.pred]) {
          occ_rel.SetLive(rid, true);
          windows[occurrence] = {rid, rid + 1};
          lost.Clear();
          status = EnumerateIntoRows(executor, *db, windows, &lost, stats);
          occ_rel.SetLive(rid, false);
          if (!status.ok()) break;
          // The head is not in the (non-recursive) body, so decrementing
          // after the enumeration sees the same rows as during it.
          for (size_t i = 0; i < lost.size(); ++i) {
            size_t head_row = head_rel.Find(lost.row(i));
            if (head_row == Relation::npos || !head_rel.IsLive(head_row)) {
              continue;
            }
            ++stats->count_decrements;
            if (head_rel.DecrementDerivation(head_row)) {
              (*removed_rows)[rule.head_pred].push_back(head_row);
            }
          }
        }
        for (auto& [rel, row] : revived) rel->SetLive(row, false);
        LDL_RETURN_IF_ERROR(status);
      }
    }
    ++stats->strata_delta;
  } else if (!affected_rules.empty()) {
    // ---- DRed phase 1: over-delete to a fixpoint against the pre-deletion
    // state. Every settled deletion below is transiently revived and every
    // body window capped at the previous watermark, so joins see exactly
    // the old model. Consequences of each worklist row are *marked* but
    // kept live -- later worklist items still join against the complete old
    // state, which is what makes this an over-approximation -- and fed back
    // through the worklist for the recursive case.
    ++stats->strata_overdeleted;

    // One executor per variant, reused across worklist rows: construction
    // allocates every per-step block, which would otherwise be paid once
    // per worklist row.
    struct ShrinkVariant {
      size_t occurrence;
      BlockExecutor executor;
      RuleProfileEntry* entry;
    };
    std::unordered_map<PredId, std::vector<ShrinkVariant>> variants_by_pred;
    for (int r : normal_rules) {
      const RuleIr& rule = program.rules[r];
      RuleProfileEntry* entry = ProfileEntry(profile, rule, r, stratum_index);
      for (size_t i = 0; i < rule.body.size(); ++i) {
        const LiteralIr& literal = rule.body[i];
        if (literal.is_builtin() || literal.negated) continue;
        // Only predicates that can appear on the worklist: deleted body
        // preds and the stratum's own heads.
        if (!has_deletions(literal.pred) &&
            !(literal.pred < is_head.size() && is_head[literal.pred])) {
          continue;
        }
        std::vector<int> order;
        StatusOr<std::vector<int>> forced =
            OrderBodyLiterals(*catalog_, rule, static_cast<int>(i));
        if (forced.ok()) {
          order = std::move(forced).value();
        } else {
          LDL_ASSIGN_OR_RETURN(order, OrderBodyLiterals(*catalog_, rule));
        }
        variants_by_pred[literal.pred].push_back(ShrinkVariant{
            i,
            BlockExecutor(factory_, &rule,
                          plans_->Get(rule, order, &stats->plan_cache_hits),
                          options.builtin_limits),
            entry});
      }
    }

    // Revive the settled deletions of every deleted body predicate for the
    // duration of phase 1.
    std::vector<std::pair<Relation*, size_t>> revived;
    std::vector<bool> revived_pred(catalog_->size(), false);
    std::vector<std::pair<PredId, size_t>> worklist;
    for (int r : normal_rules) {
      for (const LiteralIr& literal : program.rules[r].body) {
        if (literal.is_builtin() || literal.negated) continue;
        PredId p = literal.pred;
        if (p >= revived_pred.size() || revived_pred[p] || !has_deletions(p)) {
          continue;
        }
        revived_pred[p] = true;
        Relation& rel = db->relation(p);
        for (size_t row : (*removed_rows)[p]) {
          rel.SetLive(row, true);
          revived.emplace_back(&rel, row);
          worklist.emplace_back(p, row);
        }
      }
    }

    // Over-deleted head rows (marked, still live until phase 1 ends).
    std::vector<std::unordered_set<size_t>> marked(catalog_->size());
    Status phase1;
    for (size_t idx = 0; idx < worklist.size() && phase1.ok(); ++idx) {
      const auto [q, rid] = worklist[idx];
      auto it = variants_by_pred.find(q);
      if (it == variants_by_pred.end()) continue;
      for (ShrinkVariant& v : it->second) {
        const RuleIr& rule = v.executor.rule();
        std::vector<LiteralWindow> windows(rule.body.size());
        for (size_t j = 0; j < rule.body.size(); ++j) {
          const LiteralIr& literal = rule.body[j];
          if (!literal.is_builtin() && !literal.negated) {
            windows[j] = {0, watermark_of(literal.pred)};
          }
        }
        windows[v.occurrence] = {rid, rid + 1};
        ++stats->rule_firings;
        if (v.entry != nullptr) {
          ++v.entry->counters.firings;
          ++v.entry->counters.delta_rows;
        }
        RowBuffer consequences(rule.head_args.size());
        phase1 = EnumerateIntoRows(v.executor, *db, windows, &consequences,
                                   stats);
        if (!phase1.ok()) break;
        // Marking keeps rows live, so it cannot change the enumeration.
        Relation& head_rel = db->relation(rule.head_pred);
        for (size_t i = 0; i < consequences.size(); ++i) {
          size_t head_row = head_rel.Find(consequences.row(i));
          if (head_row == Relation::npos || !head_rel.IsLive(head_row)) {
            continue;
          }
          if (marked[rule.head_pred].insert(head_row).second) {
            worklist.emplace_back(rule.head_pred, head_row);
          }
        }
      }
    }
    // Deleted rows go back to being tombstones whether or not phase 1
    // succeeded; a clean database state outlives the error.
    for (auto& [rel, row] : revived) rel->SetLive(row, false);
    LDL_RETURN_IF_ERROR(phase1);

    // Tombstone the over-deleted rows (sorted for deterministic order), and
    // abandon any derivation counts DRed bypassed on the affected heads.
    std::vector<std::pair<PredId, size_t>> overdeleted;
    for (PredId h = 0; h < marked.size(); ++h) {
      if (marked[h].empty()) continue;
      std::vector<size_t> rows(marked[h].begin(), marked[h].end());
      std::sort(rows.begin(), rows.end());
      Relation& rel = db->relation(h);
      for (size_t row : rows) {
        rel.SetLive(row, false);
        overdeleted.emplace_back(h, row);
      }
      rel.DisableCounts();
    }

    // ---- DRed phase 2: rederive over-deleted facts that still have a
    // derivation from the surviving state. The head tuple seeds the body
    // evaluation: MatchArgs binds the head variables, which fill the root
    // row of a plan compiled with them prebound, so each candidate costs one
    // targeted existence check instead of re-running the stratum. Rederived
    // rows revive in place -- keeping their ids, so downstream deltas are
    // unaffected -- and can support other candidates, hence the fixpoint
    // rounds. Fact-rule tuples survive unconditionally.
    for (int r : fact_rules) {
      const RuleIr& rule = program.rules[r];
      InstantiationResult inst =
          InstantiateArgs(*factory_, rule.head_args, Subst());
      if (inst.unbound || inst.outside_universe) continue;
      Relation& rel = db->relation(rule.head_pred);
      size_t row = rel.Find(inst.tuple);
      if (row != Relation::npos && !rel.IsLive(row)) rel.SetLive(row, true);
    }
    std::unordered_map<PredId, std::vector<BlockExecutor>> rederivers;
    for (int r : normal_rules) {
      const RuleIr& rule = program.rules[r];
      std::vector<Symbol> head_vars;
      for (const Term* arg : rule.head_args) CollectVars(arg, &head_vars);
      std::vector<int> order;
      StatusOr<std::vector<int>> bound =
          OrderBodyLiterals(*catalog_, rule, -1, &head_vars);
      if (bound.ok()) {
        order = std::move(bound).value();
      } else {
        LDL_ASSIGN_OR_RETURN(order, OrderBodyLiterals(*catalog_, rule));
      }
      // Prebinding is sound for either order: it only turns binds of head
      // variables into probes and checks.
      auto plan = std::make_shared<const JoinPlan>(
          JoinPlan::Compile(rule, order, &head_vars));
      rederivers[rule.head_pred].emplace_back(factory_, &rule, std::move(plan),
                                              options.builtin_limits);
    }
    const std::vector<LiteralWindow> no_windows;
    std::vector<const Term*> seed;
    std::vector<std::pair<PredId, size_t>> dead;
    for (const auto& [h, row] : overdeleted) {
      if (!db->relation(h).IsLive(row)) dead.emplace_back(h, row);
    }
    while (!dead.empty()) {
      ++stats->rederive_rounds;
      bool revived_any = false;
      std::vector<std::pair<PredId, size_t>> still_dead;
      for (const auto& [h, row] : dead) {
        Relation& rel = db->relation(h);
        RowRef tuple = rel.row(row);
        bool found = false;
        auto it = rederivers.find(h);
        if (it != rederivers.end()) {
          for (BlockExecutor& executor : it->second) {
            const JoinPlan& plan = executor.plan();
            Subst subst;
            Status inner;
            MatchArgs(*factory_, executor.rule().head_args, tuple, &subst, [&]() {
              // A successful match binds every head variable to a ground
              // subterm of the tuple; those are exactly the prebound slots.
              seed.assign(plan.slot_count(), nullptr);
              for (const auto& [var, slot] : plan.var_slots()) {
                seed[slot] = subst.Lookup(var);
              }
              inner = executor.Run(
                  *db, no_windows,
                  [&](const TupleBlock&) {
                    found = true;
                    return false;
                  },
                  stats, seed.data());
              return inner.ok() && !found;
            });
            LDL_RETURN_IF_ERROR(inner);
            if (found) break;
          }
        }
        if (found) {
          rel.SetLive(row, true);
          revived_any = true;
        } else {
          still_dead.emplace_back(h, row);
        }
      }
      dead.swap(still_dead);
      if (!revived_any) break;
    }
    // What stayed dead is deleted for good; strata above see it through the
    // ledger. (The insert resume below can still revive a row -- the next
    // stratum's ledger pruning handles that.)
    for (const auto& [h, row] : dead) (*removed_rows)[h].push_back(row);
  } else {
    // No settled deletion reaches this stratum (everything below was
    // rederived or decremented back to life); only insert deltas remain.
    ++stats->strata_delta;
  }

  // ---- Phase 3: resume the seeded semi-naive insert fixpoint, so a mixed
  // insert+delete batch finishes in one pass. With no insert deltas this
  // finds empty windows and exits immediately.
  bool derived = false;
  if (!normal_rules.empty()) {
    LDL_RETURN_IF_ERROR(Fixpoint(program, normal_rules, stratum_index, db,
                                 options, stats, &derived, profile, &seed));
  }

  rollup.Finish();
  return Status::OK();
}

Status Engine::EvaluateIncrementalDelete(
    const ProgramIr& program, const Stratification& stratification,
    Database* db, const std::vector<size_t>& watermarks,
    const std::vector<bool>& changed,
    const std::vector<std::pair<PredId, Tuple>>& removed,
    const EvalOptions& options, EvalStats* stats, EvalProfile* profile) {
  EvalStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  if (!options.profile) profile = nullptr;
  if (profile != nullptr) profile->ReserveRules(program.rules.size());
  ScopedSetInternCounter set_interns(factory_, stats);
  uint64_t total_wall = 0;
  ScopedWallTimer total_timer(profile != nullptr ? &total_wall : nullptr);

  // Settle the EDB deletions up front: tombstone each removed fact's row
  // and record it in the per-predicate ledger. Absent facts are no-ops. A
  // fact inserted and deleted in the same batch sits past its watermark;
  // tombstoning it here is exactly the required cancellation (delta windows
  // skip tombstoned rows).
  const size_t pred_count = catalog_->size();  // read once; see Fixpoint
  std::vector<bool> shrunk(pred_count, false);
  std::vector<std::vector<size_t>> removed_rows(pred_count);
  for (const auto& [pred, tuple] : removed) {
    if (pred >= pred_count) continue;
    Relation& rel = db->relation(pred);
    size_t row = rel.Find(tuple);
    if (row == Relation::npos || !rel.IsLive(row)) continue;
    rel.SetLive(row, false);
    removed_rows[pred].push_back(row);
    shrunk[pred] = true;
  }

  std::vector<PredImpact> impact =
      ComputeImpact(*catalog_, program, changed, &shrunk);

  // Delta carriers: as in EvaluateIncremental, plus the shrink-maintained
  // predicates -- on a mixed batch they carry insert deltas too, and their
  // rederived rows keep old ids, so the watermark logic is unchanged.
  std::vector<bool> delta_preds(pred_count, false);
  for (PredId p = 0; p < pred_count; ++p) {
    if ((p < changed.size() && changed[p]) || impact[p] == PredImpact::kDelta ||
        impact[p] == PredImpact::kShrink) {
      delta_preds[p] = true;
    }
  }
  FixpointSeed seed{&watermarks, &delta_preds};

  for (size_t s = 0; s < stratification.strata.size(); ++s) {
    const std::vector<int>& rules = stratification.strata[s];
    PredImpact mode = PredImpact::kClean;
    for (int r : rules) {
      mode = std::max(mode, impact[program.rules[r].head_pred]);
    }
    if (mode == PredImpact::kClean) {
      ++stats->strata_skipped;
      if (profile != nullptr) {
        StratumProfile rollup;
        rollup.stratum = static_cast<int>(s);
        rollup.mode = StratumMode::kSkipped;
        profile->strata().push_back(rollup);
      }
      continue;
    }
    if (mode == PredImpact::kRecompute) {
      // Same as the insert path, except the clear threshold drops to
      // kShrink: a shrink-classified head sharing a recompute stratum never
      // went through DRed, so its kept rows could include facts whose
      // support was deleted -- clearing re-derives it from the maintained
      // inputs. Cleared relations restart their ledgers and counts.
      std::vector<bool> cleared(pred_count, false);
      for (int r : rules) {
        PredId head = program.rules[r].head_pred;
        if (impact[head] >= PredImpact::kShrink && !cleared[head]) {
          cleared[head] = true;
          db->relation(head).Clear();
          removed_rows[head].clear();
        }
      }
      for (int r : rules) {
        PredId head = program.rules[r].head_pred;
        if (!cleared[head]) db->relation(head).DisableCounts();
      }
      ++stats->strata_recomputed;
      LDL_RETURN_IF_ERROR(EvaluateStratum(program, rules, static_cast<int>(s),
                                          db, options, stats, profile));
      if (profile != nullptr) {
        profile->strata().back().mode = StratumMode::kRecomputed;
      }
      continue;
    }
    if (mode == PredImpact::kGroupRegrow) {
      ++stats->strata_regrown;
      LDL_RETURN_IF_ERROR(EvaluateStratumGroupRegrow(
          program, rules, static_cast<int>(s), db, seed, impact, options,
          stats, profile));
      continue;
    }
    if (mode == PredImpact::kShrink) {
      LDL_RETURN_IF_ERROR(EvaluateStratumShrink(
          program, rules, static_cast<int>(s), db, seed, &removed_rows,
          options, stats, profile));
      continue;
    }
    ++stats->strata_delta;
    LDL_RETURN_IF_ERROR(EvaluateStratumDelta(program, rules,
                                             static_cast<int>(s), db, seed,
                                             options, stats, profile));
  }
  if (profile != nullptr) {
    total_timer.Stop();
    profile->add_total_wall_ns(total_wall);
  }
  return Status::OK();
}

Status Engine::EvaluateIncremental(const ProgramIr& program,
                                   const Stratification& stratification,
                                   Database* db,
                                   const std::vector<size_t>& watermarks,
                                   const std::vector<bool>& changed,
                                   const EvalOptions& options, EvalStats* stats,
                                   EvalProfile* profile) {
  EvalStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  if (!options.profile) profile = nullptr;
  if (profile != nullptr) profile->ReserveRules(program.rules.size());
  ScopedSetInternCounter set_interns(factory_, stats);
  uint64_t total_wall = 0;
  ScopedWallTimer total_timer(profile != nullptr ? &total_wall : nullptr);

  const size_t pred_count = catalog_->size();  // read once; see Fixpoint
  std::vector<PredImpact> impact = ComputeImpact(*catalog_, program, changed);

  // Delta carriers for the seeded fixpoints: the changed EDB predicates
  // plus every delta-maintained IDB predicate. (A recomputed predicate is
  // never a carrier -- everything consuming it is itself recomputed, with
  // full windows.)
  std::vector<bool> delta_preds(pred_count, false);
  for (PredId p = 0; p < pred_count; ++p) {
    if ((p < changed.size() && changed[p]) || impact[p] == PredImpact::kDelta) {
      delta_preds[p] = true;
    }
  }
  FixpointSeed seed{&watermarks, &delta_preds};

  for (size_t s = 0; s < stratification.strata.size(); ++s) {
    const std::vector<int>& rules = stratification.strata[s];
    PredImpact mode = PredImpact::kClean;
    for (int r : rules) {
      mode = std::max(mode, impact[program.rules[r].head_pred]);
    }
    if (mode == PredImpact::kClean) {
      ++stats->strata_skipped;
      if (profile != nullptr) {
        StratumProfile rollup;
        rollup.stratum = static_cast<int>(s);
        rollup.mode = StratumMode::kSkipped;
        profile->strata().push_back(rollup);
      }
      continue;
    }
    if (mode == PredImpact::kRecompute) {
      // Clear each recomputed head once, then re-derive the whole stratum
      // from its (already-maintained) inputs. A kGroupRegrow head that
      // shares the stratum is cleared too: EvaluateStratum re-fires its
      // grouping rule from scratch, which would otherwise insert regrown
      // group facts next to the stale ones. Heads classified kDelta or
      // kClean in this stratum keep their rows -- re-deriving them is
      // deduplicated, and any genuinely new rows land past their
      // watermarks where downstream delta strata pick them up.
      std::vector<bool> cleared(pred_count, false);
      for (int r : rules) {
        PredId head = program.rules[r].head_pred;
        if (impact[head] >= PredImpact::kGroupRegrow && !cleared[head]) {
          cleared[head] = true;
          db->relation(head).Clear();
        }
      }
      // Kept heads (kDelta/kClean in this stratum) get their rules re-fired
      // with dedup against the existing rows, so their derivation counts
      // would inflate; abandon them (deletions there fall back to DRed).
      // Cleared heads re-count from scratch: Clear() empties the counts but
      // keeps counting enabled.
      for (int r : rules) {
        PredId head = program.rules[r].head_pred;
        if (!cleared[head]) db->relation(head).DisableCounts();
      }
      ++stats->strata_recomputed;
      LDL_RETURN_IF_ERROR(EvaluateStratum(program, rules, static_cast<int>(s),
                                          db, options, stats, profile));
      if (profile != nullptr) {
        profile->strata().back().mode = StratumMode::kRecomputed;
      }
      continue;
    }
    if (mode == PredImpact::kGroupRegrow) {
      ++stats->strata_regrown;
      LDL_RETURN_IF_ERROR(EvaluateStratumGroupRegrow(
          program, rules, static_cast<int>(s), db, seed, impact, options,
          stats, profile));
      continue;
    }
    ++stats->strata_delta;
    LDL_RETURN_IF_ERROR(EvaluateStratumDelta(program, rules,
                                             static_cast<int>(s), db, seed,
                                             options, stats, profile));
  }
  if (profile != nullptr) {
    total_timer.Stop();
    profile->add_total_wall_ns(total_wall);
  }
  return Status::OK();
}

namespace {

// Turns on derivation counting for the head relations of every
// non-recursive, grouping-free stratum before a from-scratch semi-naive
// evaluation. Counts are only exact when each body solution is enumerated
// once, which holds for the single full-application round a non-recursive
// stratum runs (and for the exactly-decomposed delta resumes later); a
// recursive fixpoint revisits solutions across rounds, and grouping
// reconciliation erases/reinserts head facts, so those strata stay
// uncounted and deletions there go through DRed. EnableCounts is a no-op on
// non-empty relations, so a db that somehow already holds IDB rows simply
// stays uncounted (conservative).
void EnableDerivationCounts(const ProgramIr& program,
                            const Stratification& stratification, Database* db) {
  for (const std::vector<int>& rules : stratification.strata) {
    std::vector<PredId> heads;
    bool eligible = true;
    for (int r : rules) {
      if (program.rules[r].is_grouping()) {
        eligible = false;
        break;
      }
      heads.push_back(program.rules[r].head_pred);
    }
    if (!eligible) continue;
    for (int r : rules) {
      for (const LiteralIr& literal : program.rules[r].body) {
        if (literal.is_builtin() || literal.negated) continue;
        if (std::find(heads.begin(), heads.end(), literal.pred) != heads.end()) {
          eligible = false;  // recursive stratum
          break;
        }
      }
      if (!eligible) break;
    }
    if (!eligible) continue;
    for (PredId head : heads) db->relation(head).EnableCounts();
  }
}

}  // namespace

Status Engine::EvaluateProgram(const ProgramIr& program,
                               const Stratification& stratification, Database* db,
                               const EvalOptions& options, EvalStats* stats,
                               EvalProfile* profile) {
  EvalStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  if (!options.profile) profile = nullptr;
  if (profile != nullptr) profile->ReserveRules(program.rules.size());
  ScopedSetInternCounter set_interns(factory_, stats);
  uint64_t total_wall = 0;
  ScopedWallTimer total_timer(profile != nullptr ? &total_wall : nullptr);
  if (options.mode == EvalOptions::Mode::kSemiNaive) {
    EnableDerivationCounts(program, stratification, db);
  }
  for (size_t s = 0; s < stratification.strata.size(); ++s) {
    LDL_RETURN_IF_ERROR(EvaluateStratum(program, stratification.strata[s],
                                        static_cast<int>(s), db, options, stats,
                                        profile));
  }
  if (profile != nullptr) {
    total_timer.Stop();
    profile->add_total_wall_ns(total_wall);
  }
  return Status::OK();
}

Status Engine::EvaluateSaturating(const ProgramIr& program, Database* db,
                                  const EvalOptions& options, EvalStats* stats,
                                  EvalProfile* profile) {
  EvalStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  if (!options.profile) profile = nullptr;
  if (profile != nullptr) profile->ReserveRules(program.rules.size());
  ScopedSetInternCounter set_interns(factory_, stats);
  uint64_t total_wall = 0;
  ScopedWallTimer total_timer(profile != nullptr ? &total_wall : nullptr);
  // The saturation loop is unlayered; it reports as one pseudo-stratum -1.
  StratumRollup rollup(profile, stats, /*stratum=*/-1, StratumMode::kFull);

  std::vector<int> positive_rules;
  std::vector<int> grouping_rules;
  std::vector<int> negation_rules;
  for (size_t r = 0; r < program.rules.size(); ++r) {
    const RuleIr& rule = program.rules[r];
    if (rule.is_fact()) {
      InstantiationResult inst = InstantiateArgs(*factory_, rule.head_args, Subst());
      if (inst.unbound) return NotWellFormedError("fact with unbound variables");
      RuleProfileEntry* entry =
          ProfileEntry(profile, rule, static_cast<int>(r), /*stratum=*/-1);
      if (entry != nullptr) ++entry->counters.firings;
      if (!inst.outside_universe && db->AddFact(rule.head_pred, inst.tuple)) {
        ++stats->facts_derived;
        if (entry != nullptr) ++entry->counters.facts_derived;
      }
    } else if (rule.is_grouping()) {
      grouping_rules.push_back(static_cast<int>(r));
    } else if (rule.has_negation()) {
      negation_rules.push_back(static_cast<int>(r));
    } else {
      positive_rules.push_back(static_cast<int>(r));
    }
  }

  // Per grouping rule: partition key -> emitted fact, for reconciliation.
  std::vector<std::unordered_map<Tuple, Tuple, TupleHash>> emitted(
      grouping_rules.size());
  // Per grouping rule: cross-round group cache. Grouping rules re-fire each
  // global round over a monotonically grown database; partitions whose
  // member count is unchanged reuse the cached canonical fact instead of
  // re-sorting and re-interning (see GroupCacheEntry).
  std::vector<GroupCache> group_caches(grouping_rules.size());

  // The saturating evaluator always orders syntactically: it runs in a
  // scratch database where every adorned predicate starts empty (entry
  // statistics carry no signal about the sizes the fixpoint will reach),
  // and it re-enters Fixpoint once per global round, so cost-based
  // planning would be repaid on every round of every sub-millisecond
  // bound query. `sat_options` turns the planner off for the inner
  // fixpoints too.
  EvalOptions sat_options = options;
  sat_options.cost_based = false;
  std::vector<std::vector<int>> negation_orders;
  for (int r : negation_rules) {
    LDL_ASSIGN_OR_RETURN(std::vector<int> order,
                         OrderBodyLiterals(*catalog_, program.rules[r]));
    negation_orders.push_back(std::move(order));
  }
  std::vector<std::vector<int>> grouping_orders;
  for (int r : grouping_rules) {
    LDL_ASSIGN_OR_RETURN(std::vector<int> order,
                         OrderBodyLiterals(*catalog_, program.rules[r]));
    grouping_orders.push_back(std::move(order));
  }

  for (size_t round = 0;; ++round) {
    if (round >= options.max_rounds) {
      return ResourceExhaustedError("saturation exceeded max_rounds");
    }
    bool changed = false;

    // 1. Saturate the positive, non-grouping part. For a given set of magic
    //    facts this fully evaluates every predicate a grouping or negated
    //    body below may consult (§6's "fully evaluate per magic tuple").
    if (!positive_rules.empty()) {
      bool derived = false;
      LDL_RETURN_IF_ERROR(Fixpoint(program, positive_rules, /*stratum_index=*/-1,
                                   db, sat_options, stats, &derived, profile));
      changed = changed || derived;
    }

    // 2. Grouping rules over the saturated state, reconciled per key.
    for (size_t g = 0; g < grouping_rules.size(); ++g) {
      const RuleIr& rule = program.rules[grouping_rules[g]];
      RuleProfileEntry* entry =
          ProfileEntry(profile, rule, grouping_rules[g], /*stratum=*/-1);
      EvalStats group_local;
      EvalStats* gs = entry != nullptr ? &group_local : stats;
      ScopedWallTimer timer(entry != nullptr ? &entry->counters.wall_ns
                                             : nullptr);
      BlockExecutor executor(
          factory_, &rule,
          plans_->Get(rule, grouping_orders[g], &gs->plan_cache_hits),
          options.builtin_limits);
      ++gs->rule_firings;
      LDL_ASSIGN_OR_RETURN(
          std::vector<GroupResult> groups,
          ComputeGroups(*factory_, executor, *db, gs, &group_caches[g]));
      for (GroupResult& group : groups) {
        auto it = emitted[g].find(group.key);
        if (it == emitted[g].end()) {
          if (db->AddFact(rule.head_pred, group.fact)) {
            changed = true;
            ++gs->facts_derived;
          }
          emitted[g].emplace(std::move(group.key), std::move(group.fact));
          continue;
        }
        if (it->second == group.fact) continue;
        // The group regrew after it was first emitted. For admissible source
        // programs the per-magic-tuple body is complete before the group
        // first fires, so this indicates a non-layered source (see §6
        // discussion). Replace, but only if the old fact is not claimed by
        // another grouping rule, and require monotone growth.
        const Term* old_set = it->second[rule.group_index];
        const Term* new_set = group.fact[rule.group_index];
        if (!old_set->is_set() || !new_set->is_set() ||
            factory_->SetDifference(old_set, new_set)->size() != 0) {
          return InternalError(
              "a grouped set changed non-monotonically during magic "
              "evaluation; source program is not admissible");
        }
        bool claimed_elsewhere = false;
        for (size_t other = 0; other < emitted.size(); ++other) {
          if (other == g) continue;
          for (const auto& [key, fact] : emitted[other]) {
            if (fact == it->second &&
                program.rules[grouping_rules[other]].head_pred == rule.head_pred) {
              claimed_elsewhere = true;
              break;
            }
          }
          if (claimed_elsewhere) break;
        }
        if (!claimed_elsewhere) db->relation(rule.head_pred).Erase(it->second);
        if (db->AddFact(rule.head_pred, group.fact)) ++gs->facts_derived;
        it->second = std::move(group.fact);
        changed = true;
      }
      if (entry != nullptr) {
        ++entry->counters.firings;
        AttributeStats(entry, group_local);
        stats->Add(group_local);
      }
    }

    // 3. Negation rules over the saturated state.
    for (size_t i = 0; i < negation_rules.size(); ++i) {
      const RuleIr& rule = program.rules[negation_rules[i]];
      bool derived = false;
      LDL_RETURN_IF_ERROR(ApplyRule(
          rule, negation_orders[i], {}, db, options, stats, &derived,
          ProfileEntry(profile, rule, negation_rules[i], /*stratum=*/-1)));
      changed = changed || derived;
    }

    if (!changed) break;
  }
  rollup.Finish();
  if (profile != nullptr) {
    total_timer.Stop();
    profile->add_total_wall_ns(total_wall);
  }
  return Status::OK();
}

StatusOr<std::vector<Tuple>> Engine::Query(const LiteralIr& goal,
                                           const Database& db) const {
  if (goal.is_builtin() || goal.negated) {
    return InvalidArgumentError("queries must be positive, non-builtin literals");
  }
  return QueryRelation(factory_, goal, db.relation(goal.pred));
}

StatusOr<std::vector<Tuple>> QueryRelation(TermFactory* factory,
                                           const LiteralIr& goal,
                                           const Relation& relation) {
  std::vector<Tuple> results;
  Subst subst;
  // Ground scons-free goal arguments select rows through the composite hash
  // index; MatchArgs still verifies the whole row (patterns, repeated
  // variables).
  relation.ForEachCandidateRow(goal.args, [&](size_t row) {
    RowRef tuple = relation.row(row);
    MatchArgs(*factory, goal.args, tuple, &subst, [&]() {
      results.emplace_back(tuple.begin(), tuple.end());
      return false;  // one match per fact suffices
    });
    return true;
  });
  return results;
}

}  // namespace ldl
