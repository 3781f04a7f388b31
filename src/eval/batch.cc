#include "eval/batch.h"

#include <algorithm>
#include <cassert>

#include "eval/bindings.h"
#include "eval/rule_eval.h"
#include "term/unify.h"

namespace ldl {

// Counter discipline: tuples_matched ticks once per candidate row handed to
// a match program or unification, index_probes once per input binding that
// probes, probe_hits once per row an index lookup returns, and solutions
// once per selected row reaching the sink.

BlockExecutor::BlockExecutor(TermFactory* factory, const RuleIr* rule,
                             std::shared_ptr<const JoinPlan> plan,
                             BuiltinLimits limits)
    : factory_(factory),
      rule_(rule),
      plan_(std::move(plan)),
      limits_(limits),
      nulls_(plan_->slot_count(), nullptr) {
  root_.Reset(plan_->slot_count(), 1);
  blocks_.resize(plan_->steps().size());
  for (TupleBlock& block : blocks_) {
    block.Reset(plan_->slot_count(), kDefaultBlockRows);
  }
  scratch_.resize(plan_->steps().size());
}

Status BlockExecutor::Run(const Database& db,
                          const std::vector<LiteralWindow>& windows,
                          const BlockFn& sink, EvalStats* stats,
                          const Term* const* seed) {
  keep_going_ = true;
  for (TupleBlock& block : blocks_) block.Restart();
  root_.Clear();
  root_.AppendRow(seed != nullptr ? seed : nulls_.data());
  return ProcessBlock(db, windows, 0, root_, sink, stats);
}

InstantiationResult BlockExecutor::InstantiateHead(const Term* const* row) const {
  if (plan_->head_simple()) {
    // Every argument reads a slot or is a ground scons-free constant, so no
    // term rebuilding (and no outside-U case) is possible.
    InstantiationResult result;
    result.tuple.reserve(plan_->head().size());
    for (const ValueRef& ref : plan_->head()) {
      const Term* value = ref.slot >= 0 ? row[ref.slot] : ref.constant;
      if (value == nullptr) {
        result.unbound = true;
        return result;
      }
      result.tuple.push_back(value);
    }
    return result;
  }
  Subst bindings;
  for (const auto& [var, slot] : plan_->var_slots()) {
    if (row[slot] != nullptr) bindings.Bind(var, row[slot]);
  }
  return InstantiateArgs(*factory_, rule_->head_args, bindings);
}

Status BlockExecutor::ProcessBlock(const Database& db,
                                   const std::vector<LiteralWindow>& windows,
                                   size_t depth, TupleBlock& in,
                                   const BlockFn& sink, EvalStats* stats) {
  if (!keep_going_) return Status::OK();
  if (depth == plan_->steps().size()) {
    stats->solutions += in.sel().size();
    keep_going_ = sink(in);
    return Status::OK();
  }
  const LiteralPlan& step = plan_->steps()[depth];
  const LiteralIr& literal = rule_->body[step.literal_index];
  TupleBlock& out = blocks_[depth];
  StepScratch& scratch = scratch_[depth];
  out.Clear();
  Status status;

  // Hands the accumulated output block downstream and resets it. Returns
  // false when the enumeration must stop (error captured in `status`, or
  // the sink asked to stop).
  auto flush = [&]() -> bool {
    if (out.empty()) {
      out.Clear();  // rows may all have been popped; reclaim the storage
      return keep_going_;
    }
    Status inner = ProcessBlock(db, windows, depth + 1, out, sink, stats);
    out.Clear();
    out.Grow();
    if (!inner.ok()) {
      status = inner;
      keep_going_ = false;
    }
    return keep_going_;
  };

  // --- Built-in step ------------------------------------------------------
  if (step.kind == StepKind::kBuiltin) {
    if (step.outputs.empty()) {
      // Pure filter (comparisons, ground checks): refine the selection
      // vector in place, no row copies. A built-in that yields k times
      // keeps the row k times, preserving its duplicate solutions.
      scratch.sel.clear();
      for (uint32_t idx : in.sel()) {
        const Term* const* src = in.row(idx);
        Subst bindings;
        for (const auto& [var, slot] : step.inputs) bindings.Bind(var, src[slot]);
        bool builtin_keep_going = true;
        Status builtin_status = EvalBuiltin(
            *factory_, literal, &bindings,
            [&]() {
              scratch.sel.push_back(idx);
              return true;
            },
            &builtin_keep_going, limits_);
        if (!builtin_status.ok()) return builtin_status;
      }
      in.mutable_sel()->swap(scratch.sel);
      if (in.empty()) return Status::OK();
      return ProcessBlock(db, windows, depth + 1, in, sink, stats);
    }
    // Expanding built-in (arithmetic, set ops binding new variables): one
    // output row per yield, outputs harvested from the scratch bindings.
    for (uint32_t idx : in.sel()) {
      if (!keep_going_) break;
      const Term* const* src = in.row(idx);
      Subst bindings;
      for (const auto& [var, slot] : step.inputs) bindings.Bind(var, src[slot]);
      bool builtin_keep_going = true;
      Status builtin_status = EvalBuiltin(
          *factory_, literal, &bindings,
          [&]() {
            if (out.full() && !flush()) return false;
            const Term** dst = out.AppendRow(src);
            for (const auto& [var, slot] : step.outputs) {
              dst[slot] = bindings.Lookup(var);
            }
            return keep_going_;
          },
          &builtin_keep_going, limits_);
      if (!builtin_status.ok()) return builtin_status;
      if (!status.ok()) return status;
    }
    if (status.ok() && keep_going_) flush();
    return status;
  }

  // --- Negation step ------------------------------------------------------
  if (step.kind == StepKind::kNegated) {
    // Negation as failure is a pure filter: refine the selection in place.
    scratch.sel.clear();
    const Relation& relation = db.relation(literal.pred);
    for (uint32_t idx : in.sel()) {
      const Term* const* src = in.row(idx);
      Subst bindings;
      for (const auto& [var, slot] : step.inputs) bindings.Bind(var, src[slot]);
      InstantiationResult inst = InstantiateArgs(*factory_, literal.args, bindings);
      bool holds;
      if (inst.unbound) {
        // Residual variables are existential under the negation (e.g. the
        // paper's !a(X, Z) with Z local): the negation holds iff *no* fact
        // matches the pattern.
        bool any_match = false;
        relation.ForEachRow(0, relation.row_count(), [&](size_t, RowRef tuple) {
          if (any_match) return;
          ++stats->tuples_matched;
          MatchArgs(*factory_, literal.args, tuple, &bindings, [&]() {
            any_match = true;
            return false;
          });
        });
        holds = !any_match;
      } else {
        // A tuple outside U is not a U-fact, so its negation holds (§2.2).
        holds = inst.outside_universe || !relation.Contains(inst.tuple);
      }
      if (holds) scratch.sel.push_back(idx);
    }
    in.mutable_sel()->swap(scratch.sel);
    if (in.empty()) return Status::OK();
    return ProcessBlock(db, windows, depth + 1, in, sink, stats);
  }

  const Relation& relation = db.relation(step.pred);
  LiteralWindow window;
  if (!windows.empty()) window = windows[step.literal_index];
  size_t to = std::min(window.to, relation.row_count());

  // --- Specialized scan/probe step ---------------------------------------
  if (step.kind == StepKind::kScan) {
    // Match program over one candidate: append the input row, bind/check
    // against the appended copy (kBind before kCheckSlot on the same slot
    // handles repeated variables within the literal), pop on failure.
    auto try_row = [&](const Term* const* src, RowRef tuple) -> bool {
      ++stats->tuples_matched;
      if (out.full() && !flush()) return false;
      const Term** dst = out.AppendRow(src);
      bool matched = true;
      for (const MatchOp& op : step.match) {
        switch (op.kind) {
          case MatchOpKind::kBind:
            dst[op.slot] = tuple[op.column];
            break;
          case MatchOpKind::kCheckSlot:
            if (tuple[op.column] != dst[op.slot]) matched = false;
            break;
          case MatchOpKind::kCheckConst:
            if (tuple[op.column] != op.constant) matched = false;
            break;
        }
        if (!matched) break;
      }
      if (!matched) out.PopRow();
      return true;
    };

    if (!step.probe.empty()) {
      // Pass 1: materialize every selected row's probe key and hash them in
      // one sweep over the block (one index_probes tick per input binding).
      const size_t key_width = step.probe.size();
      const auto& sel = in.sel();
      stats->index_probes += sel.size();
      scratch.keys.resize(key_width * sel.size());
      scratch.hashes.clear();
      scratch.hashes.reserve(sel.size());
      for (size_t s = 0; s < sel.size(); ++s) {
        const Term* const* src = in.row(sel[s]);
        const Term** key = scratch.keys.data() + s * key_width;
        for (size_t i = 0; i < key_width; ++i) {
          const ValueRef& ref = step.probe[i];
          key[i] = ref.slot >= 0 ? src[ref.slot] : ref.constant;
          assert(key[i] != nullptr);
        }
        scratch.hashes.push_back(Relation::ProbeHash({key, key_width}));
      }
      // Pass 2: probe with the precomputed hashes, input rows in order.
      for (size_t s = 0; s < sel.size(); ++s) {
        if (!keep_going_ || !status.ok()) break;
        const Term* const* src = in.row(sel[s]);
        const Term* const* key = scratch.keys.data() + s * key_width;
        relation.ProbeRowsHashed(step.probe_cols, {key, key_width},
                                 scratch.hashes[s], window.from, to,
                                 [&](size_t row) {
                                   ++stats->probe_hits;
                                   return try_row(src, relation.row(row));
                                 });
      }
      if (status.ok() && keep_going_) flush();
      return status;
    }

    // Unbound scan: gather the window's live row ids once per input block
    // (the per-candidate tombstone branch of ForEachRow amortized across
    // every input row), then run the match program over the dense array.
    scratch.live_rows.clear();
    relation.CollectLiveRows(window.from, to, &scratch.live_rows);
    for (uint32_t idx : in.sel()) {
      if (!keep_going_ || !status.ok()) break;
      const Term* const* src = in.row(idx);
      for (uint32_t row_id : scratch.live_rows) {
        if (!try_row(src, relation.row(row_id))) break;
      }
    }
    if (status.ok() && keep_going_) flush();
    return status;
  }

  // --- Generic fallback step ----------------------------------------------
  // Complex argument patterns (functors, sets, scons): per-row unification
  // inside the block loop, still probing on the statically bound columns
  // after instantiating them.
  for (uint32_t idx : in.sel()) {
    if (!keep_going_ || !status.ok()) break;
    const Term* const* src = in.row(idx);
    Subst bindings;
    for (const auto& [var, slot] : step.inputs) bindings.Bind(var, src[slot]);

    auto try_row = [&](RowRef tuple) -> bool {
      ++stats->tuples_matched;
      return MatchArgs(*factory_, literal.args, tuple, &bindings, [&]() {
        if (out.full() && !flush()) return false;
        const Term** dst = out.AppendRow(src);
        for (const auto& [var, slot] : step.outputs) {
          dst[slot] = bindings.Lookup(var);
        }
        return keep_going_;
      });
    };

    bool probed = false;
    if (!step.bound_columns.empty()) {
      std::vector<const Term*> values;
      values.reserve(step.bound_columns.size());
      std::vector<uint32_t> cols;
      cols.reserve(step.bound_columns.size());
      bool outside_universe = false;
      for (uint32_t column : step.bound_columns) {
        const Term* value = ApplySubst(*factory_, literal.args[column], bindings);
        if (value == nullptr) {
          // Instantiates outside U (scons on a non-set): no fact can match.
          outside_universe = true;
          break;
        }
        // Statically bound columns instantiate to ground scons-free terms;
        // anything else would indicate a compile/runtime boundness mismatch,
        // so skip the column rather than probe with a bad key.
        if (!value->ground() || value->has_scons()) continue;
        cols.push_back(column);
        values.push_back(value);
      }
      if (outside_universe) continue;
      if (!cols.empty()) {
        ++stats->index_probes;
        relation.ProbeRows(cols, values, window.from, to, [&](size_t row) {
          ++stats->probe_hits;
          return try_row(relation.row(row));
        });
        probed = true;
      }
    }
    if (!probed) {
      bool stopped = false;
      relation.ForEachRow(window.from, to, [&](size_t, RowRef tuple) {
        if (stopped) return;
        if (!try_row(tuple)) stopped = true;
      });
    }
  }
  if (status.ok() && keep_going_) flush();
  return status;
}

bool EmitHeadBlock(const JoinPlan& plan, const TupleBlock& block,
                   RowBuffer* out) {
  assert(plan.head_simple());
  const std::vector<ValueRef>& head = plan.head();
  for (uint32_t idx : block.sel()) {
    const Term* const* src = block.row(idx);
    const Term** dst = out->AppendRow();
    for (size_t i = 0; i < head.size(); ++i) {
      const ValueRef& ref = head[i];
      const Term* value = ref.slot >= 0 ? src[ref.slot] : ref.constant;
      if (value == nullptr) return false;  // caller aborts; partial row is moot
      dst[i] = value;
    }
  }
  return true;
}

}  // namespace ldl
