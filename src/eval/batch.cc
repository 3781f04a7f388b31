#include "eval/batch.h"

#include <algorithm>
#include <cassert>

#include "eval/bindings.h"
#include "eval/rule_eval.h"
#include "term/unify.h"

namespace ldl {

// Counter discipline: tuples_matched ticks once per candidate row handed to
// a match program or unification (for a negated literal: once per candidate
// verified, up to and including the first match), index_probes once per
// input binding that probes an index, probe_hits once per row an index
// lookup returns, and solutions once per selected row reaching the sink. A
// fully bound negated literal is a dedup-table lookup and counts nothing; a
// negated literal with no bound variable is decided once per block, and its
// counts are charged to every input binding it decides, so every counter
// stays a function of the plan and the database, never of the block size.

namespace {

// Instantiates a generic step's statically bound columns under `bindings`
// into a probe key (`cols`, `values`). Returns false when a column
// instantiates outside U (scons on a non-set): no fact can match.
// Statically bound columns instantiate to ground scons-free terms; anything
// else would indicate a compile/runtime boundness mismatch, so such a
// column is left out of the key rather than probed with a bad value.
bool BoundColumnsKey(TermFactory& factory, const LiteralPlan& step,
                     const LiteralIr& literal, const Subst& bindings,
                     std::vector<uint32_t>* cols,
                     std::vector<const Term*>* values) {
  cols->clear();
  values->clear();
  for (uint32_t column : step.bound_columns) {
    const Term* value = ApplySubst(factory, literal.args[column], bindings);
    if (value == nullptr) return false;
    if (!value->ground() || value->has_scons()) continue;
    cols->push_back(column);
    values->push_back(value);
  }
  return true;
}

// Runs a negated literal's residual match program (binds and checks of the
// existential variables that repeat within the literal) over one candidate.
bool ResidualMatch(const std::vector<MatchOp>& match, RowRef tuple,
                   const Term** vars) {
  for (const MatchOp& op : match) {
    if (op.kind == MatchOpKind::kBind) {
      vars[op.slot] = tuple[op.column];
    } else if (tuple[op.column] != vars[op.slot]) {
      return false;
    }
  }
  return true;
}

}  // namespace

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
    // The negated relation lies in a lower stratum, so it is complete and
    // read-only here and is always read whole, never through a delta window.
    const Relation& relation = db.relation(literal.pred);
    const std::vector<uint32_t>& sel = in.sel();
    scratch.sel.clear();
    if (!step.inputs.empty()) {
      AntiJoin(step, relation, in, sel, scratch, stats);
      in.mutable_sel()->swap(scratch.sel);
    } else {
      // No variable of the literal is bound before the step, so one check
      // decides every row (blocks reaching a step are never empty).
      assert(!sel.empty());
      const size_t matched = stats->tuples_matched;
      const size_t probes = stats->index_probes;
      const size_t hits = stats->probe_hits;
      AntiJoin(step, relation, in, {sel.data(), 1}, scratch, stats);
      const size_t rest = sel.size() - 1;
      stats->tuples_matched += (stats->tuples_matched - matched) * rest;
      stats->index_probes += (stats->index_probes - probes) * rest;
      stats->probe_hits += (stats->probe_hits - hits) * rest;
      if (scratch.sel.empty()) in.mutable_sel()->clear();
    }
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
      HashProbeKeys(step, in, sel, /*whole_tuple=*/false, scratch);
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
  std::vector<uint32_t> cols;
  std::vector<const Term*> values;
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
      if (!BoundColumnsKey(*factory_, step, literal, bindings, &cols, &values)) {
        continue;  // outside U: no fact can match
      }
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

void BlockExecutor::HashProbeKeys(const LiteralPlan& step,
                                  const TupleBlock& in,
                                  std::span<const uint32_t> rows,
                                  bool whole_tuple, StepScratch& scratch) {
  const size_t key_width = step.probe.size();
  scratch.keys.resize(key_width * rows.size());
  scratch.hashes.clear();
  scratch.hashes.reserve(rows.size());
  for (size_t s = 0; s < rows.size(); ++s) {
    const Term* const* src = in.row(rows[s]);
    const Term** key = scratch.keys.data() + s * key_width;
    for (size_t i = 0; i < key_width; ++i) {
      const ValueRef& ref = step.probe[i];
      key[i] = ref.slot >= 0 ? src[ref.slot] : ref.constant;
      assert(key[i] != nullptr);
    }
    scratch.hashes.push_back(whole_tuple ? Relation::RowHash({key, key_width})
                                         : Relation::ProbeHash({key, key_width}));
  }
}

void BlockExecutor::AntiJoin(const LiteralPlan& step, const Relation& relation,
                             const TupleBlock& in,
                             std::span<const uint32_t> rows,
                             StepScratch& scratch, EvalStats* stats) {
  const LiteralIr& literal = rule_->body[step.literal_index];
  const size_t row_count = relation.row_count();

  if (step.generic) {
    // Complex arguments: instantiate the bound columns through a scratch
    // substitution, probe them, and verify each candidate with MatchArgs.
    std::vector<uint32_t> cols;
    std::vector<const Term*> values;
    for (uint32_t idx : rows) {
      const Term* const* src = in.row(idx);
      Subst bindings;
      for (const auto& [var, slot] : step.inputs) bindings.Bind(var, src[slot]);
      if (step.bound_columns.size() == literal.args.size()) {
        // Fully bound: one dedup-table lookup. A tuple outside U is not a
        // U-fact, so its negation holds (§2.2).
        InstantiationResult inst =
            InstantiateArgs(*factory_, literal.args, bindings);
        if (inst.outside_universe || !relation.Contains(inst.tuple)) {
          scratch.sel.push_back(idx);
        }
        continue;
      }
      const bool outside_universe =
          !BoundColumnsKey(*factory_, step, literal, bindings, &cols, &values);
      bool found = false;
      auto verify = [&](RowRef tuple) {
        ++stats->tuples_matched;
        MatchArgs(*factory_, literal.args, tuple, &bindings, [&]() {
          found = true;
          return false;
        });
        return !found;
      };
      if (outside_universe) {
        // No fact can match; the negation holds (§2.2).
      } else if (!cols.empty()) {
        ++stats->index_probes;
        relation.ProbeRows(cols, values, 0, row_count, [&](size_t row) {
          ++stats->probe_hits;
          return verify(relation.row(row));
        });
      } else {
        for (size_t row = 0; row < row_count && !found; ++row) {
          if (relation.IsLive(row)) verify(relation.row(row));
        }
      }
      if (!found) scratch.sel.push_back(idx);
    }
    return;
  }

  scratch.vars.resize(plan_->slot_count());
  if (step.probe.empty()) {
    // Nothing to probe on (every argument is an existential variable): scan
    // for the first live fact passing the residual match.
    bool found = false;
    for (size_t row = 0; row < row_count && !found; ++row) {
      if (!relation.IsLive(row)) continue;
      ++stats->tuples_matched;
      found = ResidualMatch(step.match, relation.row(row), scratch.vars.data());
    }
    if (!found) scratch.sel.insert(scratch.sel.end(), rows.begin(), rows.end());
    return;
  }

  // Pass 1: build and hash every row's key in one sweep. A fully bound
  // literal's key is the whole tuple (probe_cols are the columns in order),
  // hashed for the dedup table; otherwise for the bound columns' index.
  const size_t key_width = step.probe.size();
  const bool fully_bound = key_width == literal.args.size();
  HashProbeKeys(step, in, rows, fully_bound, scratch);

  // Pass 2: look up each key; a probe stops at the first live fact that
  // passes the residual match.
  if (!fully_bound) stats->index_probes += rows.size();
  for (size_t s = 0; s < rows.size(); ++s) {
    const Term* const* key = scratch.keys.data() + s * key_width;
    bool found;
    if (fully_bound) {
      found = relation.ContainsHashed({key, key_width}, scratch.hashes[s]);
    } else {
      found = false;
      relation.ProbeRowsHashed(
          step.probe_cols, {key, key_width}, scratch.hashes[s], 0, row_count,
          [&](size_t row) {
            ++stats->probe_hits;
            ++stats->tuples_matched;
            found = ResidualMatch(step.match, relation.row(row),
                                  scratch.vars.data());
            return !found;
          });
    }
    if (!found) scratch.sel.push_back(rows[s]);
  }
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
