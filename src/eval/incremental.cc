// Incremental model maintenance: Engine::EvaluateIncremental and the
// per-stratum MaintainStratum with its regrow and deletion phases
// (DESIGN.md §7, §10). Every path ends in the seeded semi-naive Fixpoint of
// engine.cc, so maintenance reaches the model EvaluateProgram computes.
#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "eval/engine.h"
#include "eval/engine_internal.h"
#include "program/impact.h"
#include "term/term_ops.h"
#include "term/unify.h"

namespace ldl {

Status Engine::EvaluateIncremental(
    const ProgramIr& program, const Stratification& stratification,
    Database* db, const std::vector<size_t>& watermarks,
    const std::vector<bool>& changed,
    const std::vector<std::pair<PredId, Tuple>>& removed,
    const EvalOptions& options, EvalStats* stats, EvalProfile* profile) {
  EvaluationScope scope(factory_, program, options, stats, profile);
  stats = scope.stats();
  profile = scope.profile();

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

  // Delta carriers for the seeded fixpoints: the changed EDB predicates
  // plus every delta- or shrink-maintained IDB predicate -- on a mixed
  // batch a shrinking predicate carries insert deltas too, and its
  // rederived rows keep their ids, so the watermark logic is unchanged. (A
  // recomputed or regrown predicate is never a carrier -- everything
  // consuming it is itself recomputed, with full windows.)
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
    const int stratum = static_cast<int>(s);
    PredImpact mode = PredImpact::kClean;
    for (int r : rules) {
      mode = std::max(mode, impact[program.rules[r].head_pred]);
    }
    if (mode == PredImpact::kClean) {
      ++stats->strata_skipped;
      StratumRollup(profile, stats, stratum, StratumMode::kSkipped).Finish();
      continue;
    }
    if (mode == PredImpact::kRecompute) {
      // Clear each changed head once, then re-derive the whole stratum from
      // its (already-maintained) inputs. A kShrink head sharing the stratum
      // never went through DRed, so its kept rows could include facts whose
      // support was deleted; a kGroupRegrow head would get regrown group
      // facts next to the stale ones. Cleared relations restart their
      // ledgers, and their counts (Clear() keeps counting enabled). Heads
      // classified kDelta or kClean keep their rows -- re-deriving them is
      // deduplicated, and genuinely new rows land past their watermarks
      // where downstream strata pick them up -- but re-firing their rules
      // would inflate their derivation counts, so those are abandoned
      // (deletions there fall back to DRed).
      std::vector<bool> cleared(pred_count, false);
      for (int r : rules) {
        PredId head = program.rules[r].head_pred;
        if (impact[head] < PredImpact::kShrink) {
          db->relation(head).DisableCounts();
        } else if (!cleared[head]) {
          cleared[head] = true;
          db->relation(head).Clear();
          removed_rows[head].clear();
        }
      }
      ++stats->strata_recomputed;
      LDL_RETURN_IF_ERROR(EvaluateStratum(program, rules, stratum, db, options,
                                          stats, profile,
                                          StratumMode::kRecomputed));
      continue;
    }
    if (mode == PredImpact::kGroupRegrow) ++stats->strata_regrown;
    if (mode == PredImpact::kDelta) ++stats->strata_delta;
    LDL_RETURN_IF_ERROR(MaintainStratum(program, rules, stratum, mode, db,
                                        seed, impact, &removed_rows, options,
                                        stats, profile));
  }
  scope.Finish();
  return Status::OK();
}

Status Engine::MaintainStratum(const ProgramIr& program,
                               const std::vector<int>& rules, int stratum_index,
                               PredImpact mode, Database* db,
                               const FixpointSeed& seed,
                               const std::vector<PredImpact>& impact,
                               std::vector<std::vector<size_t>>* removed_rows,
                               const EvalOptions& options, EvalStats* stats,
                               EvalProfile* profile) {
  StratumRollup rollup(profile, stats, stratum_index,
                       mode == PredImpact::kShrink ? StratumMode::kShrink
                       : mode == PredImpact::kGroupRegrow
                           ? StratumMode::kGroupRegrow
                           : StratumMode::kDelta);
  // Facts are already materialized, and a grouping rule whose inputs are
  // untouched contributes nothing (a grouping rule over a changed input that
  // cannot regrow makes the whole stratum kRecompute). The normal rules'
  // heads are at worst kShrink: any consumer of a regrown predicate is
  // escalated to kRecompute too.
  std::vector<int> normal_rules;
  bool shrinks = false;
  bool derived = false;
  for (int r : rules) {
    const RuleIr& rule = program.rules[r];
    if (rule.is_fact()) continue;
    if (!rule.is_grouping()) {
      normal_rules.push_back(r);
      shrinks = shrinks || impact[rule.head_pred] == PredImpact::kShrink;
    } else if (impact[rule.head_pred] == PredImpact::kGroupRegrow) {
      LDL_RETURN_IF_ERROR(
          RegrowGroupingRule(rule, db, seed, options, stats, &derived,
                             ProfileEntry(profile, rule, r, stratum_index)));
    }
  }
  if (shrinks) {
    LDL_RETURN_IF_ERROR(ApplyDeletions(program, rules, normal_rules,
                                       stratum_index, db, seed, removed_rows,
                                       options, stats, profile));
  }
  // Resume the seeded semi-naive insert fixpoint, so a mixed insert+delete
  // batch finishes in one pass. With no insert deltas this finds empty
  // windows and exits immediately.
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
  RuleApplication app(stats, entry);
  EvalStats* s = app.stats();

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

    LDL_ASSIGN_OR_RETURN(
        std::vector<int> order,
        PinnedOrder(*catalog_, rule, static_cast<int>(occurrence)));
    BlockExecutor executor(factory_, &rule,
                           plans_->Get(rule, order, &s->plan_cache_hits),
                           options.builtin_limits);
    ++s->rule_firings;

    std::vector<LiteralWindow> windows = FullWindows(
        rule, [&](PredId p) { return db->relation(p).row_count(); });
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
    app.Insert(db, rule.head_pred, new_fact);
    ++s->group_regrows;
    *derived = true;
  }
  return app.Finish(*db, options);
}

Status Engine::ApplyDeletions(const ProgramIr& program,
                              const std::vector<int>& rules,
                              const std::vector<int>& normal_rules,
                              int stratum_index, Database* db,
                              const FixpointSeed& seed,
                              std::vector<std::vector<size_t>>* removed_rows,
                              const EvalOptions& options, EvalStats* stats,
                              EvalProfile* profile) {
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

  // Only the normal rules participate in deletion: facts never lose
  // support (fact rules still guarantee their tuples survive), and grouping
  // rules only appear here with untouched or regrown inputs.
  std::vector<bool> is_head(catalog_->size(), false);
  for (int r : normal_rules) is_head[program.rules[r].head_pred] = true;

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
    // (the insert resume adds them against the post-deletion state).
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
        LDL_ASSIGN_OR_RETURN(
            std::vector<int> order,
            PinnedOrder(*catalog_, rule, static_cast<int>(occurrence)));
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
        std::vector<LiteralWindow> windows = FullWindows(rule, watermark_of);
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
  }
  if (counting || affected_rules.empty()) {
    // Decremented, or no settled deletion reaches this stratum (everything
    // below was rederived or decremented back to life): like a delta
    // stratum, only insert deltas remain.
    ++stats->strata_delta;
    return Status::OK();
  }

  // ---- DRed phase 1: over-delete to a fixpoint against the pre-deletion
  // state. Every settled deletion below is transiently revived and every
  // body window capped at the previous watermark, so joins see exactly the
  // old model. Consequences of each worklist row are *marked* but kept live
  // -- later worklist items still join against the complete old state,
  // which is what makes this an over-approximation -- and fed back through
  // the worklist for the recursive case.
  ++stats->strata_overdeleted;

  // One executor per variant, reused across worklist rows: construction
  // allocates every per-step block, which would otherwise be paid once per
  // worklist row.
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
      // Only predicates that can appear on the worklist: deleted body preds
      // and the stratum's own heads.
      if (!has_deletions(literal.pred) &&
          !(literal.pred < is_head.size() && is_head[literal.pred])) {
        continue;
      }
      LDL_ASSIGN_OR_RETURN(std::vector<int> order,
                           PinnedOrder(*catalog_, rule, static_cast<int>(i)));
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
      std::vector<LiteralWindow> windows = FullWindows(rule, watermark_of);
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
  // evaluation: MatchArgs binds the head variables, which fill the root row
  // of a plan compiled with them prebound, so each candidate costs one
  // targeted existence check instead of re-running the stratum. Rederived
  // rows revive in place -- keeping their ids, so downstream deltas are
  // unaffected -- and can support other candidates, hence the fixpoint
  // rounds. Fact-rule tuples survive unconditionally.
  for (int r : rules) {
    const RuleIr& rule = program.rules[r];
    if (!rule.is_fact()) continue;
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
    LDL_ASSIGN_OR_RETURN(std::vector<int> order,
                         PinnedOrder(*catalog_, rule, -1, &head_vars));
    // Prebinding is sound for either order: it only turns binds of head
    // variables into probes and checks.
    auto plan = std::make_shared<const JoinPlan>(
        JoinPlan::Compile(rule, order, &head_vars));
    rederivers[rule.head_pred].emplace_back(factory_, &rule, std::move(plan),
                                            options.builtin_limits);
  }
  const std::vector<LiteralWindow> no_windows;
  std::vector<const Term*> bound;
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
            bound.assign(plan.slot_count(), nullptr);
            for (const auto& [var, slot] : plan.var_slots()) {
              bound[slot] = subst.Lookup(var);
            }
            inner = executor.Run(
                *db, no_windows,
                [&](const TupleBlock&) {
                  found = true;
                  return false;
                },
                stats, bound.data());
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
  // ledger. (The insert resume can still revive a row -- the next stratum's
  // ledger pruning handles that.)
  for (const auto& [h, row] : dead) (*removed_rows)[h].push_back(row);
  return Status::OK();
}

}  // namespace ldl
