// Compiled join plans for bottom-up rule evaluation.
//
// A JoinPlan is the compile-once/execute-many form of one (rule, literal
// order) pair: the rule's variables are numbered into dense slots and each
// body literal becomes a LiteralPlan that the evaluator executes over a flat
// slot array instead of a symbol-keyed substitution.
//
//   * kScan: a positive literal whose arguments are all plain variables or
//     ground scons-free constants. The statically bound argument positions
//     form a (possibly composite) probe spec fed from slots/constants; the
//     remaining columns run a match program (bind slot / check slot / check
//     constant) with no generic unification.
//   * kGenericScan: a positive literal with complex argument patterns
//     (functors, sets, scons, ...). Falls back to MatchArgs unification, but
//     still probes on the statically bound columns after instantiating them
//     through a scratch substitution.
//   * kNegated: negation as failure, compiled like the positive steps into
//     an anti-semi-join. A simple literal gets kScan's probe spec over its
//     statically bound columns (constants included) plus a residual match
//     program for repeated existential variables (!r(X, Z, Z)); a literal
//     with complex arguments gets kGenericScan's bound_columns and verifies
//     candidates with MatchArgs. The executor stops at the first matching
//     fact, and a fully bound simple literal is one dedup-table lookup.
//   * kBuiltin: evaluated through the builtin machinery over a scratch
//     substitution materialized from the slots the literal mentions.
//
// Plans depend only on the rule structure and the literal order, never on
// the database, so Engine caches them in a PlanCache keyed by a structural
// fingerprint (interned Term pointers are stable for the factory's
// lifetime, which makes the fingerprint collision-free).
#ifndef LDL1_EVAL_PLAN_H_
#define LDL1_EVAL_PLAN_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "program/ir.h"
#include "term/term_ops.h"

namespace ldl {

// A probe key component or head output: read from a slot or a constant.
struct ValueRef {
  int slot = -1;                   // >= 0: read slots[slot]
  const Term* constant = nullptr;  // used when slot < 0
};

enum class MatchOpKind : uint8_t {
  kBind,        // slots[slot] = tuple[column]
  kCheckSlot,   // tuple[column] == slots[slot] (repeated variable)
  kCheckConst,  // tuple[column] == constant
};

struct MatchOp {
  MatchOpKind kind;
  uint32_t column;
  int slot = -1;
  const Term* constant = nullptr;
};

enum class StepKind : uint8_t { kScan, kGenericScan, kBuiltin, kNegated };

// Compiled form of one body literal at its position in the join order.
struct LiteralPlan {
  StepKind kind;
  int literal_index;              // position in RuleIr::body
  PredId pred = kInvalidPred;     // relational literals only

  // kScan and simple kNegated: statically bound columns (the probe spec)
  // and the match program for the remaining columns. probe_cols[i] is the
  // column probe[i] feeds. A kNegated match program binds and checks only
  // the existential variables that repeat within the literal (empty when
  // none does); its binds go to scratch, never to the output row.
  std::vector<uint32_t> probe_cols;
  std::vector<ValueRef> probe;
  std::vector<MatchOp> match;

  // kGenericScan and generic kNegated: columns whose argument patterns are
  // fully bound under the slots available at this depth; instantiated at
  // runtime to probe keys.
  std::vector<uint32_t> bound_columns;
  // kNegated only: the literal has complex arguments (bound_columns +
  // MatchArgs) rather than a probe spec and match program.
  bool generic = false;

  // kGenericScan / kBuiltin / kNegated: variables of this literal bound
  // before the step (materialized into the scratch substitution) and
  // variables the step newly binds (harvested back into slots). A kNegated
  // step binds nothing; empty `inputs` means its answer is the same for
  // every input row.
  std::vector<std::pair<Symbol, int>> inputs;
  std::vector<std::pair<Symbol, int>> outputs;
};

class JoinPlan {
 public:
  // Compiles `rule` under `order` (from OrderBodyLiterals). Never fails:
  // anything that cannot be specialized becomes a generic step. Variables
  // in `prebound` count as bound before step 0 (their slots are filled in
  // the executor's seed row, e.g. head variables of a fact being
  // rederived); pass the same set OrderBodyLiterals was seeded with.
  static JoinPlan Compile(const RuleIr& rule, const std::vector<int>& order,
                          const std::vector<Symbol>* prebound = nullptr);

  const std::vector<LiteralPlan>& steps() const { return steps_; }
  size_t slot_count() const { return slot_count_; }

  // All rule variables with their slots, sorted by symbol for lookup.
  const std::vector<std::pair<Symbol, int>>& var_slots() const {
    return var_slots_;
  }
  // Slot of `var`, or -1 if the rule does not mention it.
  int SlotOf(Symbol var) const;

  // True when every head argument is a plain variable or a ground scons-free
  // constant, so head tuples can be built straight from slots.
  bool head_simple() const { return head_simple_; }
  const std::vector<ValueRef>& head() const { return head_; }

 private:
  std::vector<LiteralPlan> steps_;
  std::vector<std::pair<Symbol, int>> var_slots_;
  size_t slot_count_ = 0;
  bool head_simple_ = false;
  std::vector<ValueRef> head_;
};

// Engine-level cache of compiled plans keyed by a structural fingerprint of
// (rule, order). Structural keying (head/body predicates and interned term
// pointers) keeps entries valid across temporary ProgramIr instances, e.g.
// the per-query magic rewrites, which may reuse addresses of freed rules.
//
// Internally synchronized: probes take a shared lock and misses compile
// outside the lock before inserting under an exclusive one, so one cache can
// serve many concurrent query threads (ldl::Service shares a single cache
// across its snapshot readers and the writer session).
class PlanCache {
 public:
  // Returns the plan for (rule, order), compiling it on a miss. `hits`, when
  // non-null, is incremented on a cache hit.
  std::shared_ptr<const JoinPlan> Get(const RuleIr& rule,
                                      const std::vector<int>& order,
                                      size_t* hits = nullptr);

  void Clear();
  size_t size() const;

 private:
  struct Entry {
    std::vector<uint64_t> fingerprint;
    std::shared_ptr<const JoinPlan> plan;
  };
  mutable std::shared_mutex mu_;
  std::unordered_map<uint64_t, std::vector<Entry>> entries_;
};

}  // namespace ldl

#endif  // LDL1_EVAL_PLAN_H_
