// Block-at-a-time execution of compiled join plans: the engine's one
// rule-body executor.
//
// Bindings travel in TupleBlocks (flat, bounded chunks of slot rows plus a
// selection vector), and each LiteralPlan step becomes a kernel that
// consumes a whole input block before handing its output block downstream:
//
//   * scan kernel      -- gathers the window's live row ids once per input
//                         block (tombstones filtered in one pass, not per
//                         candidate), then runs the match program over the
//                         dense id array;
//   * probe kernel     -- hashes every selected row's probe key in one pass
//                         over the block, then probes the composite index
//                         with the precomputed hashes;
//   * filter kernels   -- output-free comparison built-ins refine the
//                         selection vector in place (no row copies);
//   * anti-join kernel -- negated literals filter the selection too: fully
//                         bound keys are hashed for the whole block and
//                         looked up in the dedup table; partly bound ones
//                         probe the bound columns' index with block-hashed
//                         keys and stop at the first live fact passing the
//                         residual match; a literal with no bound variable
//                         is decided once per block;
//   * per-row kernels  -- generic unification and output-producing
//                         built-ins run per selected row inside the block
//                         loop, so set/complex terms lose nothing;
//   * emit kernel      -- head rows for a whole solution block are built
//                         straight from plan slots into a flat RowBuffer
//                         (no per-solution Tuple allocation), which the
//                         engine inserts in bulk after the enumeration.
//
// Determinism: kernels enumerate (input row, candidate row) pairs in
// depth-first order -- input rows in selection order, candidates in
// ascending row id -- and blocks drain fully before the next input row
// group, so the solution stream, the derivation counts (each solution
// yields exactly one Insert) and every EvalStats/RuleProfile counter are a
// function of the plan and the database alone, never of the block size.
// DESIGN.md §12 gives the argument;
// tests/equivalence_test.cc checks the models against the reference
// interpreter (eval/rule_eval.h) over the whole corpus.
#ifndef LDL1_EVAL_BATCH_H_
#define LDL1_EVAL_BATCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "base/status.h"
#include "eval/bindings.h"
#include "eval/builtins.h"
#include "eval/plan.h"
#include "eval/relation.h"
#include "program/ir.h"
#include "term/term_ops.h"

namespace ldl {

struct EvalStats;
struct LiteralWindow;

// Most rows a block holds: sized so a block of typical width (a handful of
// slots) stays inside L1/L2 alongside the probe-hash scratch.
inline constexpr size_t kDefaultBlockRows = 256;

// Rows in a block's first fill of a run; each flush doubles the fill up to
// the block's capacity. Small inputs (magic rounds, DRed's single-row
// windows and seeds) then neither allocate nor expand a full block before
// the first solution reaches the sink.
inline constexpr size_t kFirstBlockRows = 16;

// A bounded chunk of bound rows. Each row is `width` interned term
// pointers (one per plan slot); `sel` lists the active rows in enumeration
// order (filter kernels narrow it without moving rows; an index may repeat
// when a built-in yields the same binding more than once, preserving its
// duplicate solutions). Rows carry an implicit derivation count of one --
// every selected row is exactly one body solution, which is what keeps
// Relation's per-row derivation counts exact under batching.
class TupleBlock {
 public:
  void Reset(size_t width, size_t capacity) {
    width_ = width;
    capacity_ = capacity;
    data_.clear();
    Clear();
    Restart();
  }
  void Clear() {
    sel_.clear();
    rows_ = 0;
  }
  // Fill limit back to the first-fill size (start of a run) / doubled, up
  // to capacity (after a flush). Storage grows with the limit, on demand.
  void Restart() { limit_ = std::min(kFirstBlockRows, capacity_); }
  void Grow() { limit_ = std::min(2 * limit_, capacity_); }

  size_t width() const { return width_; }
  size_t row_count() const { return rows_; }
  bool full() const { return rows_ >= limit_; }
  bool empty() const { return sel_.empty(); }

  const std::vector<uint32_t>& sel() const { return sel_; }
  std::vector<uint32_t>* mutable_sel() { return &sel_; }

  const Term** row(size_t i) { return data_.data() + i * width_; }
  const Term* const* row(size_t i) const { return data_.data() + i * width_; }

  // Appends a copy of `src` (width terms) as a selected row and returns the
  // writable copy (kernels bind new slots into it). Caller checks full().
  const Term** AppendRow(const Term* const* src) {
    if (data_.size() < (rows_ + 1) * width_) data_.resize(limit_ * width_);
    const Term** dst = row(rows_);
    for (size_t i = 0; i < width_; ++i) dst[i] = src[i];
    sel_.push_back(static_cast<uint32_t>(rows_));
    ++rows_;
    return dst;
  }
  // Drops the most recently appended row (a match program that failed
  // after binding).
  void PopRow() {
    sel_.pop_back();
    --rows_;
  }

 private:
  std::vector<const Term*> data_;
  std::vector<uint32_t> sel_;
  size_t width_ = 0;
  size_t capacity_ = 0;
  size_t limit_ = 0;  // rows before full(); grows from kFirstBlockRows
  size_t rows_ = 0;
};

// Flat accumulator for head tuples of one fixed arity: the batch emit
// buffer. Replaces std::vector<Tuple> (one heap allocation per solution)
// with a single growing array the engine inserts from once the rule
// application's enumeration is done.
class RowBuffer {
 public:
  explicit RowBuffer(size_t width) : width_(width) {}

  size_t width() const { return width_; }
  size_t size() const { return rows_; }
  RowRef row(size_t i) const { return {data_.data() + i * width_, width_}; }

  // Reserves one row and returns its writable storage (null for arity 0).
  const Term** AppendRow() {
    data_.resize(data_.size() + width_);
    ++rows_;
    return data_.data() + (rows_ - 1) * width_;
  }
  void AppendRow(const Term* const* src) {
    const Term** dst = AppendRow();
    for (size_t i = 0; i < width_; ++i) dst[i] = src[i];
  }
  void Clear() {
    data_.clear();
    rows_ = 0;
  }

 private:
  size_t width_;
  size_t rows_ = 0;
  std::vector<const Term*> data_;
};

// Receives each block of completed body solutions (all plan slots bound,
// `sel` in enumeration order). Return false to stop the enumeration; the
// stop is block-granular (the delivered block was already counted whole),
// so counters of an early-stopped run depend on the block size -- the
// engine only stops early on errors and in DRed rederivation's existence
// checks.
using BlockFn = std::function<bool(const TupleBlock&)>;

// Drives one compiled (rule, plan) pair block-at-a-time. Construction
// allocates the per-step blocks and scratch once; Run may be called
// repeatedly (the engine reuses one executor per rule application, and one
// per variant across DRed worklist rows).
class BlockExecutor {
 public:
  BlockExecutor(TermFactory* factory, const RuleIr* rule,
                std::shared_ptr<const JoinPlan> plan, BuiltinLimits limits);

  // Enumerates body solutions against `db`, handing completed blocks to
  // `sink`. `windows` is indexed by body literal position (not evaluation
  // order); empty means "full relation" for every literal. A non-null
  // `seed` (slot_count() terms) is the root row: the slots of the plan's
  // prebound variables must be filled, every other slot null.
  Status Run(const Database& db, const std::vector<LiteralWindow>& windows,
             const BlockFn& sink, EvalStats* stats,
             const Term* const* seed = nullptr);

  // Builds the head fact of one solution row: straight slot reads for
  // head_simple() plans, otherwise the head patterns instantiated through a
  // substitution over the row's bound slots.
  InstantiationResult InstantiateHead(const Term* const* row) const;

  const RuleIr& rule() const { return *rule_; }
  const JoinPlan& plan() const { return *plan_; }

 private:
  // Expands `in`'s selected rows through step `depth` into blocks_[depth],
  // flushing downstream whenever a block fills; drains fully on return.
  Status ProcessBlock(const Database& db,
                      const std::vector<LiteralWindow>& windows, size_t depth,
                      TupleBlock& in, const BlockFn& sink, EvalStats* stats);

  TermFactory* factory_;
  const RuleIr* rule_;
  std::shared_ptr<const JoinPlan> plan_;
  BuiltinLimits limits_;

  // Per-step working storage. Scratch must be per step, not shared: a flush
  // re-enters ProcessBlock for the downstream step while the upstream step
  // is still iterating its own scratch.
  struct StepScratch {
    std::vector<const Term*> keys;   // probe keys, step.probe.size() per row
    std::vector<uint64_t> hashes;    // precomputed key hash per selected row
    std::vector<uint32_t> live_rows; // gathered live row ids (scan kernel)
    std::vector<uint32_t> sel;       // refined selection (filter kernels)
    std::vector<const Term*> vars;   // residual binds (anti-join kernel)
  };

  // Pass 1 of the probe kernels: writes the probe key of each of `rows`
  // (ids into `in`) to scratch.keys, step.probe.size() terms per row, and
  // its hash to scratch.hashes -- for Relation::ContainsHashed when
  // `whole_tuple` (the key is the whole fact), else ProbeRowsHashed.
  void HashProbeKeys(const LiteralPlan& step, const TupleBlock& in,
                     std::span<const uint32_t> rows, bool whole_tuple,
                     StepScratch& scratch);

  // Anti-join kernel of a kNegated step: appends to scratch.sel, in order,
  // each of `rows` (ids into `in`) under which no live fact of `relation`
  // matches the negated literal.
  void AntiJoin(const LiteralPlan& step, const Relation& relation,
                const TupleBlock& in, std::span<const uint32_t> rows,
                StepScratch& scratch, EvalStats* stats);

  bool keep_going_ = true;
  TupleBlock root_;                  // the one seed row feeding step 0
  std::vector<const Term*> nulls_;   // all-null root row for unseeded runs
  std::vector<TupleBlock> blocks_;   // blocks_[d]: output block of step d
  std::vector<StepScratch> scratch_;
};

// Emit kernel: builds the head row for every selected solution in `block`
// straight from plan slots into `out`. Only valid for plans with
// head_simple(); returns false if a head slot is unbound (an internal
// error the caller reports).
bool EmitHeadBlock(const JoinPlan& plan, const TupleBlock& block,
                   RowBuffer* out);

}  // namespace ldl

#endif  // LDL1_EVAL_BATCH_H_
