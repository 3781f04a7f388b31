// Helpers shared by the stratified driver (engine.cc) and incremental
// maintenance (incremental.cc). Internal to the engine; not a public API.
#ifndef LDL1_EVAL_ENGINE_INTERNAL_H_
#define LDL1_EVAL_ENGINE_INTERNAL_H_

#include <vector>

#include "eval/batch.h"
#include "eval/engine.h"

namespace ldl {

// The bookkeeping every Engine entry point shares: a local EvalStats when
// the caller passes none, the profile gated on options.profile (with the
// rule table sized up front, so cached entry pointers stay valid), the
// factory's set-intern delta folded into stats->set_interns on every exit,
// and the evaluation's total wall time, recorded by Finish() on success.
class EvaluationScope {
 public:
  EvaluationScope(const TermFactory* factory, const ProgramIr& program,
                  const EvalOptions& options, EvalStats* stats,
                  EvalProfile* profile)
      : stats_(stats != nullptr ? stats : &local_stats_),
        profile_(options.profile ? profile : nullptr),
        factory_(factory),
        set_interns_before_(factory->set_interned_count()),
        total_timer_(profile_ != nullptr ? &total_wall_ : nullptr) {
    if (profile_ != nullptr) profile_->ReserveRules(program.rules.size());
  }
  // The count of *distinct* sets interned is determined by the computed
  // model, so set_interns is as deterministic as the model itself.
  ~EvaluationScope() {
    stats_->set_interns += factory_->set_interned_count() - set_interns_before_;
  }

  EvalStats* stats() const { return stats_; }
  EvalProfile* profile() const { return profile_; }

  void Finish() {
    if (profile_ == nullptr) return;
    total_timer_.Stop();
    profile_->add_total_wall_ns(total_wall_);
  }

 private:
  EvalStats local_stats_;
  EvalStats* stats_;
  EvalProfile* profile_;
  const TermFactory* factory_;
  size_t set_interns_before_;
  uint64_t total_wall_ = 0;
  ScopedWallTimer total_timer_;
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

// The accounting of one rule application. With a profile entry, counters
// collect into a rule-local EvalStats so the application's share can be
// attributed to the rule before folding into the totals, and the entry's
// wall_ns covers the application's lifetime. An application that fails
// before Finish() attributes nothing.
class RuleApplication {
 public:
  RuleApplication(EvalStats* totals, RuleProfileEntry* entry)
      : totals_(totals),
        entry_(entry),
        timer_(entry != nullptr ? &entry->counters.wall_ns : nullptr) {}

  // Where this application's counters go.
  EvalStats* stats() { return entry_ != nullptr ? &local_ : totals_; }

  // Inserts one derived head fact; true, and counted, if it is new.
  bool Insert(Database* db, PredId pred, RowRef fact) {
    if (!db->AddFact(pred, fact)) return false;
    ++stats()->facts_derived;
    return true;
  }

  // Attributes one firing to the profile entry, folds the counters into the
  // totals, and enforces options.max_facts.
  Status Finish(const Database& db, const EvalOptions& options);

 private:
  EvalStats* totals_;
  RuleProfileEntry* entry_;
  EvalStats local_;
  ScopedWallTimer timer_;
};

// Enumerates `executor`'s body solutions into `produced`, one head row per
// solution. Productions are buffered -- inserting while enumerating would
// invalidate row references for self-recursive rules -- and outside-U heads
// are skipped.
Status EnumerateIntoRows(BlockExecutor& executor, const Database& db,
                         const std::vector<LiteralWindow>& windows,
                         RowBuffer* produced, EvalStats* stats);

// Syntactic body order with occurrence `forced` first (or, with
// `initially_bound`, those variables prebound). Pinning is only a join-order
// optimization -- windows bind to body positions, not evaluation slots -- so
// when no such order is evaluable this falls back to the default order.
StatusOr<std::vector<int>> PinnedOrder(
    const Catalog& catalog, const RuleIr& rule, int forced,
    const std::vector<Symbol>* initially_bound = nullptr);

// Windows giving every positive body literal the rows [0, extent(pred));
// built-in and negated positions keep the unwindowed default.
template <typename Extent>
std::vector<LiteralWindow> FullWindows(const RuleIr& rule, Extent extent) {
  std::vector<LiteralWindow> windows(rule.body.size());
  for (size_t i = 0; i < rule.body.size(); ++i) {
    const LiteralIr& literal = rule.body[i];
    if (!literal.is_builtin() && !literal.negated) {
      windows[i] = {0, extent(literal.pred)};
    }
  }
  return windows;
}

}  // namespace ldl

#endif  // LDL1_EVAL_ENGINE_INTERNAL_H_
