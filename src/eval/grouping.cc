#include "eval/grouping.h"

#include <utility>

#include "eval/bindings.h"

namespace ldl {

GroupCollector::GroupCollector(TermFactory* factory, const RuleIr& rule)
    : factory_(factory),
      rule_(rule),
      group_var_term_(factory->MakeVar(rule.group_var)) {
  // Z = variables of the non-grouped head arguments (§2.2). Z may include
  // the grouped variable itself, in which case groups are singletons.
  for (size_t i = 0; i < rule.head_args.size(); ++i) {
    if (static_cast<int>(i) == rule.group_index) continue;
    CollectVars(rule.head_args[i], &z_vars_);
  }
}

template <typename InstantiateHead>
Status GroupCollector::Add(const Term* y, InstantiateHead&& instantiate_head) {
  auto it = partitions_.find(key_);
  if (it != partitions_.end()) {
    it->second.members.Add(y);
    return Status::OK();
  }
  InstantiationResult head = instantiate_head();
  if (head.unbound) return InternalError("head variable unbound under grouping");
  if (head.outside_universe) return Status::OK();  // no U-fact for this key
  Partition partition{std::move(head.tuple), TermFactory::SetBuilder(factory_)};
  partition.members.Add(y);
  partitions_.emplace(std::move(key_), std::move(partition));
  key_ = Tuple();
  return Status::OK();
}

Status GroupCollector::AddBlock(const BlockExecutor& executor,
                                const TupleBlock& block) {
  // Slots hold evaluated ground terms, so Z and Y read straight from them.
  const JoinPlan& plan = executor.plan();
  z_slots_.clear();
  for (Symbol var : z_vars_) z_slots_.push_back(plan.SlotOf(var));
  const int group_slot = plan.SlotOf(rule_.group_var);
  for (uint32_t idx : block.sel()) {
    const Term* const* row = block.row(idx);
    key_.clear();
    key_.reserve(z_slots_.size());
    for (int slot : z_slots_) {
      const Term* value = slot >= 0 ? row[slot] : nullptr;
      if (value == nullptr || !value->ground()) {
        return InternalError("grouping key variable unbound in a body solution");
      }
      key_.push_back(value);
    }
    const Term* y = group_slot >= 0 ? row[group_slot] : nullptr;
    if (y == nullptr) {
      return InternalError("grouped variable unbound in a body solution");
    }
    LDL_RETURN_IF_ERROR(Add(y, [&] { return executor.InstantiateHead(row); }));
  }
  return Status::OK();
}

Status GroupCollector::AddSolution(const Subst& solution) {
  key_.clear();
  key_.reserve(z_vars_.size());
  for (Symbol var : z_vars_) {
    const Term* value = solution.Lookup(var);
    if (value == nullptr || !value->ground()) {
      return InternalError("grouping key variable unbound in a body solution");
    }
    key_.push_back(value);
  }
  // The grouped pattern may still need instantiating (scons evaluation,
  // outside-U detection).
  bool y_ground = true;
  const Term* y = InstantiateGround(*factory_, group_var_term_, solution, &y_ground);
  if (y == nullptr) {
    if (!y_ground) {
      return InternalError("grouped variable unbound in a body solution");
    }
    return Status::OK();  // outside U: contributes no element
  }
  return Add(y, [&] { return InstantiateArgs(*factory_, rule_.head_args, solution); });
}

std::vector<GroupResult> GroupCollector::Finish(EvalStats* stats,
                                                GroupCache* cache) {
  std::vector<GroupResult> results;
  results.reserve(partitions_.size());
  for (auto& [partition_key, partition] : partitions_) {
    GroupResult result;
    result.key = partition_key;
    const size_t member_count = partition.members.size();
    if (cache != nullptr) {
      auto it = cache->find(partition_key);
      if (it != cache->end() && it->second.member_count == member_count) {
        // Unchanged member multiset (see GroupCacheEntry): reuse the
        // canonical fact without re-sorting or re-interning.
        if (stats != nullptr) ++stats->groups_reused;
        result.fact = it->second.fact;
        results.push_back(std::move(result));
        continue;
      }
    }
    if (stats != nullptr) ++stats->groups_built;
    result.fact = std::move(partition.head_values);
    result.fact[rule_.group_index] = partition.members.Build();
    if (cache != nullptr) {
      (*cache)[partition_key] = GroupCacheEntry{member_count, result.fact};
    }
    results.push_back(std::move(result));
  }
  return results;
}

StatusOr<std::vector<GroupResult>> ComputeGroups(
    TermFactory& factory, BlockExecutor& executor, const Database& db,
    EvalStats* stats, GroupCache* cache) {
  const RuleIr& rule = executor.rule();
  if (!rule.is_grouping()) {
    return InternalError("ComputeGroups called on a non-grouping rule");
  }
  GroupCollector collector(&factory, rule);
  Status inner;
  LDL_RETURN_IF_ERROR(executor.Run(
      db, {},
      [&](const TupleBlock& block) {
        inner = collector.AddBlock(executor, block);
        return inner.ok();
      },
      stats));
  LDL_RETURN_IF_ERROR(inner);
  return collector.Finish(stats, cache);
}

StatusOr<std::vector<GroupResult>> ComputeGroups(
    TermFactory& factory, RuleEvaluator& evaluator, const Database& db,
    EvalStats* stats, GroupCache* cache) {
  const RuleIr& rule = evaluator.rule();
  if (!rule.is_grouping()) {
    return InternalError("ComputeGroups called on a non-grouping rule");
  }
  GroupCollector collector(&factory, rule);
  Status inner;
  LDL_RETURN_IF_ERROR(evaluator.ForEachSolution(
      db, {},
      [&](const Subst& solution) {
        inner = collector.AddSolution(solution);
        return inner.ok();
      },
      stats));
  LDL_RETURN_IF_ERROR(inner);
  return collector.Finish(stats, cache);
}

}  // namespace ldl
