// Bottom-up evaluation engines.
//
//   * EvaluateProgram: stratified (layer-by-layer) evaluation of an
//     admissible program per Theorem 1. Within a layer the grouping rules
//     are applied once over the layer's input model, then the remaining
//     rules run to fixpoint (Lemma 3.2.3), naively or semi-naively.
//   * EvaluateIncremental: delta-driven maintenance of an already
//     materialized model after EDB insertions. Strata reachable from the
//     changed predicates only through positive non-grouping (>=) edges
//     resume semi-naive fixpoint from the inserted rows; a sole-rule,
//     negation-free grouping head over such inputs regrows only its
//     affected partitions in place; strata reached through a negation
//     edge (or an ineligible grouping edge) are cleared and recomputed;
//     untouched strata are skipped (see program/impact.h).
//   * EvaluateSaturating: evaluation of a magic-rewritten program, which is
//     not layered (§6). Positive non-grouping rules are saturated, then
//     grouping and negation rules fire over the saturated state; the loop
//     repeats until global fixpoint. Grouped facts are reconciled per
//     partition key; a group that would shrink or change retroactively
//     indicates a non-layered source program and raises kInternal.
//
// One serial fixpoint driver (Engine::Fixpoint) runs every stratum. Each
// round evaluates against round-start snapshot windows, and semi-naive delta
// variants split multi-delta joins exactly, so rounds, firings, profiles
// and derivation counts are deterministic (DESIGN.md §5). An Engine is
// single-threaded; concurrency lives one level up, in ldl::Service, whose
// readers and per-query magic engines share the interner, the plan cache and
// the relations' lazy indexes.
#ifndef LDL1_EVAL_ENGINE_H_
#define LDL1_EVAL_ENGINE_H_

#include <utility>
#include <vector>

#include "base/status.h"
#include "eval/grouping.h"
#include "eval/plan.h"
#include "eval/profile.h"
#include "eval/rule_eval.h"
#include "program/impact.h"
#include "program/ir.h"
#include "program/stratify.h"

namespace ldl {

struct EvalOptions {
  enum class Mode {
    kNaive,      // re-apply every rule over the full database each round
    kSemiNaive,  // delta-driven re-application
  };
  Mode mode = Mode::kSemiNaive;
  // Guards against non-terminating programs (function symbols make the
  // universe infinite).
  size_t max_rounds = 1u << 20;
  size_t max_facts = 1u << 26;
  BuiltinLimits builtin_limits;
  // Pick join orders with the statistics-driven cost model (eval/cost.h)
  // instead of the syntactic most-bound-args heuristic, and re-cost the
  // semi-naive delta variants each round against the delta-window sizes
  // (adaptive replanning). Order choices read only round-start snapshots,
  // so they are as deterministic as the rounds themselves.
  bool cost_based = true;
  // Replanning hysteresis: a delta variant switches to the newly costed
  // order only when estimated_work(current) > ratio * estimated_work(best).
  // Keeps plan churn (and plan-cache pressure) low when estimates wobble.
  double replan_cost_ratio = 2.0;
  // Collect a per-rule / per-stratum EvalProfile (eval/profile.h) into the
  // EvalProfile* the caller passes alongside stats. Off, the engine never
  // reads the clock; the hot-path cost is one null test per application.
  bool profile = false;
};

class Engine {
 public:
  // With a non-null `shared_plans` the engine probes (and fills) the caller's
  // plan cache instead of an internal one. PlanCache is internally
  // synchronized, so many per-query engines -- e.g. the scratch engines
  // ldl::Service spins up for concurrent magic evaluations -- can share one
  // cache and reuse each other's compiled plans.
  explicit Engine(TermFactory* factory, Catalog* catalog,
                  PlanCache* shared_plans = nullptr)
      : factory_(factory),
        catalog_(catalog),
        plans_(shared_plans != nullptr ? shared_plans : &owned_plans_) {}

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Stratified bottom-up evaluation of an admissible program (Theorem 1).
  // With options.profile set and `profile` non-null, per-rule/per-stratum
  // execution profiles are collected into *profile (not cleared first).
  Status EvaluateProgram(const ProgramIr& program,
                         const Stratification& stratification, Database* db,
                         const EvalOptions& options = {}, EvalStats* stats = nullptr,
                         EvalProfile* profile = nullptr);

  // Incremental maintenance of an already-materialized model after EDB
  // insertions (program/impact.h). `db` must hold the model of `program`
  // over the pre-update EDB, with the inserted facts appended after it;
  // `watermarks[p]` is relation(p).row_count() at the end of that
  // evaluation (preds registered since are treated as watermark 0) and
  // `changed[p]` marks the extensional predicates that gained facts. Per
  // stratum: unaffected strata are skipped, strata reachable only through
  // positive non-grouping edges resume semi-naive fixpoint from the rows
  // past the watermarks, eligible grouping heads regrow only the partitions
  // the insertions touch (EvaluateStratumGroupRegrow), and strata reached
  // through a negation edge or an ineligible grouping edge -- where an
  // insertion below can retract facts above -- clear their recomputed heads
  // and re-derive from the maintained inputs (stats->strata_skipped /
  // strata_delta / strata_regrown / strata_recomputed count the four
  // outcomes). The result is the same model EvaluateProgram computes
  // from scratch over the updated EDB. Only insertions are supported here;
  // batches containing deletions go through EvaluateIncrementalDelete
  // below, and rule changes still need a full re-evaluation.
  Status EvaluateIncremental(const ProgramIr& program,
                             const Stratification& stratification, Database* db,
                             const std::vector<size_t>& watermarks,
                             const std::vector<bool>& changed,
                             const EvalOptions& options = {},
                             EvalStats* stats = nullptr,
                             EvalProfile* profile = nullptr);

  // Incremental maintenance after a mixed batch of EDB insertions and
  // deletions (delete-and-rederive, DRed). Inputs are as for
  // EvaluateIncremental -- `db` holds the pre-update model with inserted
  // facts appended past `watermarks` and `changed` marking the inserted-into
  // predicates -- plus `removed`, the EDB facts to delete (absent facts are
  // ignored). Removed rows are tombstoned up front; then per stratum:
  //   * kShrink strata with exact derivation counts (non-recursive,
  //     grouping-free, counted heads, at most one deleted-carrier occurrence
  //     per rule) decrement the counts of the head facts each deleted row
  //     derived and tombstone rows reaching zero (stats->count_decrements);
  //   * other kShrink strata run the two DRed phases -- over-delete to
  //     fixpoint against the pre-deletion state (deleted rows transiently
  //     revived), then rederive over-deleted facts that survive from the
  //     remaining facts (stats->strata_overdeleted / rederive_rounds);
  //   * both then resume the seeded semi-naive insert fixpoint, so mixed
  //     batches finish in the same pass;
  //   * strata reached through grouping or negation fall back to
  //     clear-and-recompute exactly as in EvaluateIncremental, and kDelta /
  //     kGroupRegrow / untouched strata are handled as there.
  // The result is the model EvaluateProgram computes from scratch over the
  // updated EDB.
  Status EvaluateIncrementalDelete(
      const ProgramIr& program, const Stratification& stratification,
      Database* db, const std::vector<size_t>& watermarks,
      const std::vector<bool>& changed,
      const std::vector<std::pair<PredId, Tuple>>& removed,
      const EvalOptions& options = {}, EvalStats* stats = nullptr,
      EvalProfile* profile = nullptr);

  // Saturation evaluation for magic-rewritten (non-layered) programs (§6).
  // Profiled rules carry stratum -1 (the evaluation is unlayered).
  Status EvaluateSaturating(const ProgramIr& program, Database* db,
                            const EvalOptions& options = {},
                            EvalStats* stats = nullptr,
                            EvalProfile* profile = nullptr);

  // Enumerates facts of goal's predicate matching the goal's argument
  // patterns. The goal must be positive and non-builtin. Const and safe to
  // call from concurrent readers of an immutable database (delegates to
  // QueryRelation below).
  StatusOr<std::vector<Tuple>> Query(const LiteralIr& goal,
                                     const Database& db) const;

  TermFactory* factory() const { return factory_; }
  Catalog* catalog() const { return catalog_; }

 private:
  // Seed for a resumed (incremental) fixpoint: rows past each predicate's
  // watermark form the first round's deltas, and round 0 (full rule
  // application) is skipped -- the database already holds a model of the
  // rules over the pre-update inputs.
  struct FixpointSeed {
    // Row counts at the end of the previous evaluation; preds past the end
    // are treated as watermark 0.
    const std::vector<size_t>* watermarks;
    // Predicates that may carry rows past their watermark (changed EDB
    // preds plus delta-maintained lower-stratum IDB preds).
    const std::vector<bool>* delta_preds;
  };

  Status EvaluateStratum(const ProgramIr& program, const std::vector<int>& rules,
                         int stratum_index, Database* db,
                         const EvalOptions& options, EvalStats* stats,
                         EvalProfile* profile);

  // Delta-resumes a stratum whose predicates can only grow under the
  // update: facts and grouping rules are skipped (their inputs are
  // unchanged) and the normal rules run a seeded semi-naive fixpoint.
  Status EvaluateStratumDelta(const ProgramIr& program,
                              const std::vector<int>& rules, int stratum_index,
                              Database* db, const FixpointSeed& seed,
                              const EvalOptions& options, EvalStats* stats,
                              EvalProfile* profile);

  // Handles a stratum whose worst head impact is kGroupRegrow: eligible
  // grouping rules regrow only the partitions the inserted rows touch
  // (RegrowGroupingRule); the stratum's normal rules -- whose heads are at
  // worst kDelta, since any consumer of a regrown predicate escalates to
  // kRecompute -- resume the seeded semi-naive fixpoint.
  Status EvaluateStratumGroupRegrow(const ProgramIr& program,
                                    const std::vector<int>& rules,
                                    int stratum_index, Database* db,
                                    const FixpointSeed& seed,
                                    const std::vector<PredImpact>& impact,
                                    const EvalOptions& options,
                                    EvalStats* stats, EvalProfile* profile);

  // Handles one kShrink stratum of EvaluateIncrementalDelete: the counting
  // fast path when eligible, the DRed over-delete + rederive phases
  // otherwise, then the seeded insert resume. `removed_rows[p]` holds the
  // tombstoned row ids of each predicate's settled deletions; the handler
  // consumes the entries of the strata below and appends the stratum's own
  // head deletions for the strata above.
  Status EvaluateStratumShrink(const ProgramIr& program,
                               const std::vector<int>& rules, int stratum_index,
                               Database* db, const FixpointSeed& seed,
                               std::vector<std::vector<size_t>>* removed_rows,
                               const EvalOptions& options, EvalStats* stats,
                               EvalProfile* profile);

  // In-place incremental maintenance of one eligible grouping rule (sole
  // rule for its head, negation-free, kDelta body inputs; see
  // program/impact.h). Enumerates only the body solutions that involve at
  // least one row past the seed watermarks, collects the new member values
  // per partition key, and unions them into the existing group facts --
  // replacing each affected head fact instead of clearing the relation.
  Status RegrowGroupingRule(const RuleIr& rule, Database* db,
                            const FixpointSeed& seed,
                            const EvalOptions& options, EvalStats* stats,
                            bool* derived, RuleProfileEntry* entry);

  // Applies one non-grouping rule (optionally with per-literal windows);
  // inserts derived facts. Sets *derived if anything new appeared. A
  // non-null `entry` attributes one firing plus this application's
  // counters and wall time to the rule's profile.
  Status ApplyRule(const RuleIr& rule, const std::vector<int>& order,
                   const std::vector<LiteralWindow>& windows, Database* db,
                   const EvalOptions& options, EvalStats* stats, bool* derived,
                   RuleProfileEntry* entry = nullptr);

  // Runs grouping rule(s) once over the current database, inserting results.
  Status ApplyGroupingRule(const RuleIr& rule, Database* db,
                           const EvalOptions& options, EvalStats* stats,
                           bool* derived, RuleProfileEntry* entry = nullptr);

  // Fixpoint of `rule_indices` (non-grouping rules) over db. Every round
  // evaluates against the round-start snapshot: explicit [0, row_count)
  // windows keep rule N from seeing rule N-1's same-round inserts, and delta
  // variants decompose multi-delta joins exactly (DESIGN.md §5).
  // With a non-null `seed` the fixpoint resumes incrementally: round 0 is
  // skipped, the low watermarks start at the seed's values, and the delta
  // machinery runs regardless of options.mode.
  Status Fixpoint(const ProgramIr& program, const std::vector<int>& rule_indices,
                  int stratum_index, Database* db, const EvalOptions& options,
                  EvalStats* stats, bool* derived_any, EvalProfile* profile,
                  const FixpointSeed* seed = nullptr);

  // Profile entry for `rule`, labeled on first touch; null when `profile`
  // is null. Pointers stay valid for the evaluation (the rule table is
  // sized up front by the Evaluate* entry points).
  RuleProfileEntry* ProfileEntry(EvalProfile* profile, const RuleIr& rule,
                                 int rule_index, int stratum);

  TermFactory* factory_;
  Catalog* catalog_;
  // Compiled plans survive across Fixpoint/EvaluateSaturating calls (the
  // magic path re-evaluates per query); keyed structurally, so temporary
  // rewritten programs hit the cache on identical rules. plans_ points at
  // owned_plans_ unless the constructor was handed a shared cache.
  PlanCache owned_plans_;
  PlanCache* plans_;
};

// The read-side core of Engine::Query: enumerates the facts of `relation`
// matching the goal's argument patterns, probing the relation's composite
// hash index on all ground scons-free argument positions. Pure read --
// concurrent callers over an immutable relation only contend on the lazy
// index build, which Relation handles internally.
StatusOr<std::vector<Tuple>> QueryRelation(TermFactory* factory,
                                           const LiteralIr& goal,
                                           const Relation& relation);

}  // namespace ldl

#endif  // LDL1_EVAL_ENGINE_H_
