// The set-grouping operator (paper §2.2 semantics, §3.2 bottom-up r(M)).
//
// For a grouping rule  p(t1, ..., <Y>, ..., tn) <-- body  the body's
// solution relation is partitioned by the values of Z (all variables of the
// non-grouped head arguments); within each partition the Y values are
// collected into a finite set. Only non-empty groups produce facts.
#ifndef LDL1_EVAL_GROUPING_H_
#define LDL1_EVAL_GROUPING_H_

#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "eval/batch.h"
#include "eval/rule_eval.h"

namespace ldl {

// One produced group: the finished head fact plus its partition key (the
// instantiated Z-variable values). The key is what the magic-set scheduler
// uses to reconcile regrown groups.
struct GroupResult {
  Tuple key;
  Tuple fact;
};

// Cross-round reuse of canonicalized groups. The saturating (magic)
// evaluator recomputes every grouping rule once per global round; most
// partitions do not change between rounds, so re-sorting and re-interning
// their member sets is wasted work. `member_count` is the partition's body
// solution count *including duplicates*: body solutions only accumulate
// across saturation rounds (relations grow monotonically between grouping
// firings), so an unchanged count implies an unchanged member multiset and
// the cached fact can be reused verbatim (EvalStats::groups_reused); any
// growth rebuilds and replaces the entry (groups_built).
struct GroupCacheEntry {
  size_t member_count = 0;
  Tuple fact;
};
using GroupCache = std::unordered_map<Tuple, GroupCacheEntry, TupleHash>;

// Partitions body solutions of one grouping rule by their Z values and
// collects each partition's Y values. Fed either by the block executor
// (Z/Y read straight from plan slots) or by the reference interpreter
// (Z/Y looked up in the substitution, Y instantiated so scons and outside-U
// values are handled); both fold the same solutions into the same
// partitions.
class GroupCollector {
 public:
  struct Partition {
    Tuple head_values;                // instantiated non-grouped head args
    TermFactory::SetBuilder members;  // collected Y values (deduped at Build)
  };
  using PartitionMap = std::unordered_map<Tuple, Partition, TupleHash>;

  GroupCollector(TermFactory* factory, const RuleIr& rule);

  // Folds every selected row of `block` (laid out by executor.plan()).
  Status AddBlock(const BlockExecutor& executor, const TupleBlock& block);
  // Folds one interpreter solution.
  Status AddSolution(const Subst& solution);

  PartitionMap& partitions() { return partitions_; }

  // Canonicalizes the partitions into one GroupResult each. With a non-null
  // `cache`, partitions whose member count matches the cached entry reuse
  // the cached fact instead of re-canonicalizing (see GroupCacheEntry).
  std::vector<GroupResult> Finish(EvalStats* stats, GroupCache* cache);

 private:
  // Adds `y` to the partition of the key in key_, creating the partition
  // (head values from `instantiate_head`) on first sight.
  template <typename InstantiateHead>
  Status Add(const Term* y, InstantiateHead&& instantiate_head);

  TermFactory* factory_;
  const RuleIr& rule_;
  std::vector<Symbol> z_vars_;  // variables of the non-grouped head args
  std::vector<int> z_slots_;    // their slots in the current block's plan
  const Term* group_var_term_;
  PartitionMap partitions_;
  Tuple key_;  // per-solution key buffer; relocates into the map when new
};

// Evaluates a grouping rule over `db` through the block executor and returns
// one GroupResult per non-empty partition (see GroupCollector::Finish for
// `cache`).
StatusOr<std::vector<GroupResult>> ComputeGroups(
    TermFactory& factory, BlockExecutor& executor, const Database& db,
    EvalStats* stats, GroupCache* cache = nullptr);

// The same through the reference interpreter (semantics/, tests).
StatusOr<std::vector<GroupResult>> ComputeGroups(
    TermFactory& factory, RuleEvaluator& evaluator, const Database& db,
    EvalStats* stats, GroupCache* cache = nullptr);

}  // namespace ldl

#endif  // LDL1_EVAL_GROUPING_H_
