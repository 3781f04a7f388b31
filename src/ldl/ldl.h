// ldl::Session -- the public entry point of the library.
//
// Typical use:
//
//   ldl::Session session;
//   LDL_RETURN_IF_ERROR(session.Load(R"(
//     parent(adam, bob).  parent(bob, carl).
//     ancestor(X, Y) :- parent(X, Y).
//     ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
//   )"));
//   auto answers = session.Query("ancestor(adam, X)");
//
// Load() accepts full LDL1.5 (sets, grouping, negation, complex head/body
// terms); Analyze() macro-expands to LDL1, lowers, checks well-formedness
// and admissibility, and stratifies. Evaluate() materializes the standard
// minimal model bottom-up (Theorem 1). Query() answers a goal using the
// selected QueryStrategy: against the materialized model, via the
// Generalized Magic Sets rewriting (§6) in a fresh database, or through the
// memoized top-down baseline.
#ifndef LDL1_LDL_LDL_H_
#define LDL1_LDL_LDL_H_

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ast/ast.h"
#include "base/status.h"
#include "eval/engine.h"
#include "program/lower.h"
#include "program/stratify.h"
#include "program/termination.h"
#include "program/wellformed.h"
#include "rewrite/ldl15.h"
#include "eval/topdown.h"
#include "rewrite/magic.h"
#include "semantics/explain.h"

namespace ldl {

// How Session::Query answers a goal.
enum class QueryStrategy {
  // Match the goal against the materialized minimal model (evaluating it
  // bottom-up first if needed).
  kModel,
  // Compile the Generalized Magic Sets rewriting (§6) for the goal's
  // binding pattern and evaluate it in a scratch database seeded with the
  // EDB.
  kMagic,
  // kMagic, with supplementary predicates (shared prefix joins).
  kMagicSupplementary,
  // The memoized top-down engine (QSQ-style) -- the baseline §6's magic
  // sets mimic.
  kTopDown,
};

// "model", "magic", "magic-sup", "topdown".
const char* ToString(QueryStrategy strategy);
// Inverse of ToString (a few aliases are also accepted); kInvalidArgument
// naming the valid strategies on unknown names.
StatusOr<QueryStrategy> ParseQueryStrategy(std::string_view name);
// The canonical names as one comma-separated list, for help text and error
// messages: "model, magic, magic-sup, topdown".
const char* QueryStrategyNames();

struct QueryOptions {
  QueryStrategy strategy = QueryStrategy::kModel;
  EvalOptions eval;
};

struct QueryResult {
  std::vector<Tuple> tuples;
  // Stats of the evaluation that answered the query (the magic/top-down
  // run under those strategies, otherwise the last full Evaluate()).
  EvalStats stats;
  // Per-rule / per-stratum execution profile of that same evaluation.
  // Populated only when QueryOptions::eval.profile is set (under kModel the
  // materializing Evaluate() must itself have run with profiling on).
  EvalProfile profile;
};

class Service;

// A goal parsed, checked and lowered once, queryable many times. Hot goals
// skip the per-call reparse; ldl::Service additionally requires prepared
// goals on its concurrent read path so querying never mutates shared parser
// state. A PreparedQuery stays valid for the lifetime of the Session or
// Service that prepared it -- PredIds and interned terms survive later
// Load()/Analyze() rounds -- though answers always reflect the model it is
// asked against, not the one it was prepared under.
class PreparedQuery {
 public:
  PreparedQuery() = default;

  // The goal text this query was prepared from.
  const std::string& text() const { return text_; }
  const LiteralIr& goal() const { return goal_; }
  bool valid() const { return goal_.pred != kInvalidPred; }

 private:
  friend class Session;
  friend class Service;
  PreparedQuery(std::string_view text, LiteralIr goal)
      : text_(text), goal_(std::move(goal)) {}

  std::string text_;
  LiteralIr goal_ = {};
};

// Answers `goal` through the Generalized Magic Sets rewriting (§6) in a
// scratch database seeded with the rewritten program's EDB predicates from
// `edb` (Session passes its fact store, ModelSnapshot its frozen model). The
// rewrite registers adorned and magic predicates in the engine's catalog;
// callers whose catalog is shared across threads pass `rewrite_mu` to
// serialize that mutation (evaluation itself runs outside the lock). Shared
// by Session::Query and ModelSnapshot::Query.
StatusOr<QueryResult> QueryViaMagic(Engine* engine, const ProgramIr& program,
                                    const LiteralIr& goal,
                                    const QueryOptions& options,
                                    const Database& edb,
                                    std::mutex* rewrite_mu = nullptr);

// Answers `goal` with the memoized top-down engine over a scratch EDB
// holding `edb`'s relations for `edb_preds`. Shared by Session::Query and
// ModelSnapshot::Query.
StatusOr<QueryResult> QueryViaTopDown(TermFactory* factory, Catalog* catalog,
                                      const ProgramIr& program,
                                      const Stratification& stratification,
                                      const std::vector<PredId>& edb_preds,
                                      const LiteralIr& goal,
                                      const QueryOptions& options,
                                      const Database& edb);

class Session {
 public:
  // With a non-null `shared_plans` the session's engine probes the caller's
  // (internally synchronized) plan cache instead of an engine-private one;
  // ldl::Service uses this to share compiled plans between its writer
  // session and the per-query scratch engines of concurrent readers.
  explicit Session(PlanCache* shared_plans = nullptr);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // Parses and accumulates program text. May be called repeatedly;
  // invalidates previous analysis. Ground facts (a clause with an empty
  // body, no grouping and ground arguments) go straight into the EDB store
  // (edb()), where a fact loaded twice has count 2; facts outside the LDL1
  // universe are dropped. Rules, stored queries and every other clause
  // accumulate in ast() and are checked at the next Analyze().
  Status Load(std::string_view source);

  // Load() for a file on disk (.ldl program text).
  Status LoadFile(const std::string& path);

  // Incremental update entry point: routes `source` exactly like Load(),
  // but when every clause is a ground fact of an extensional predicate the
  // analysis stays valid and the facts become a pending EDB delta -- the
  // materialized model (if any) stays alive and the next Evaluate()/Query()
  // maintains it via Engine::EvaluateIncremental (together with any
  // pending RemoveFacts deletions) instead of re-deriving everything.
  // Anything else (rules, stored queries, facts of derived predicates,
  // LDL1.5 text that expands into rules) invalidates the analysis as
  // Load() does. Always safe to call; never changes the final model vs.
  // Load() + full re-evaluation.
  Status AddFacts(std::string_view source);

  // Removes previously loaded ground EDB facts: each removal decrements
  // the fact's count in the EDB store, and the fact is gone once its count
  // reaches zero (absent facts are ignored). `source` must contain only
  // facts. The batch is atomic: it is validated in full before any state
  // changes, so an error (stored query, proper rule, derived predicate,
  // non-ground fact) leaves the session observably unchanged. A live
  // materialized model survives deletions -- the facts whose last
  // occurrence was removed become a pending deletion delta and the next
  // Evaluate()/Query() maintains the model incrementally via
  // Engine::EvaluateIncremental, in one pass with any pending AddFacts
  // insertions (derivation-count decrements or DRed over-delete/rederive;
  // strata reached through grouping or negation still recompute
  // conservatively).
  Status RemoveFacts(std::string_view source);

  // Drops the materialized model (analysis stays valid); the next
  // Evaluate() rebuilds from scratch. For tests and benchmarks that need
  // to force the full path.
  void InvalidateModel();

  // Expands LDL1.5, lowers, checks well-formedness, stratifies. Idempotent;
  // called implicitly by Evaluate()/Query().
  Status Analyze();

  // Bottom-up stratified evaluation into the session database. With a
  // current model and no pending changes under the same options this is a
  // cheap cache hit; with only pending EDB insertions (AddFacts) it
  // maintains the model incrementally; otherwise it materializes from
  // scratch. last_eval_stats()/last_eval_profile() always describe the run
  // that produced the current model (the incremental one after a delta
  // maintenance pass).
  Status Evaluate(const EvalOptions& options = {});

  // Evaluates the analyzed program under a caller-supplied layering into
  // `db` (seeded with the EDB facts). Used to exercise Theorem 2: any valid
  // layering yields the same standard model.
  Status EvaluateInto(const Stratification& stratification, Database* db,
                      const EvalOptions& options = {});

  // Parses, checks and lowers `goal_text` (e.g. "young(john, S)") into a
  // PreparedQuery that can be executed many times without reparsing.
  // Analyzes on demand.
  StatusOr<PreparedQuery> Prepare(std::string_view goal_text);

  // Answers `goal_text`. Under kModel the session model must be (or will
  // be) materialized via Evaluate(). Equivalent to Prepare() + Query(); hot
  // callers prepare once and reuse.
  StatusOr<QueryResult> Query(std::string_view goal_text,
                              const QueryOptions& options = {});

  // Answers a previously prepared goal, skipping the parse.
  StatusOr<QueryResult> Query(const PreparedQuery& prepared,
                              const QueryOptions& options = {});

  // Why-provenance: a rendered derivation tree for `fact_text` (e.g.
  // "anc(a, c)") against the materialized model. Returns kNotFound when the
  // fact is not in the model.
  StatusOr<std::string> Explain(std::string_view fact_text,
                                const ExplainOptions& options = {});

  // Advisory §7 finiteness warnings for the analyzed program (recursive
  // rules constructing new terms in their heads). Analyzes on demand.
  StatusOr<std::vector<TerminationWarning>> TerminationWarnings();

  // Formats a database fact.
  std::string FormatFact(PredId pred, const Tuple& tuple) const;
  // Formats just the tuple: "(a, {1, 2})".
  std::string FormatTuple(const Tuple& tuple) const;

  // Configuration (set before Analyze()).
  void set_ldl15_options(const Ldl15Options& options) { ldl15_options_ = options; }
  void set_wellformed_options(const WellformedOptions& options) {
    wellformed_options_ = options;
  }

  // Introspection. Const overloads let read-only callers (printers,
  // analyses, tests) take a `const Session&`.
  Interner& interner() { return interner_; }
  const Interner& interner() const { return interner_; }
  TermFactory& factory() { return factory_; }
  const TermFactory& factory() const { return factory_; }
  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  Database& database() { return *db_; }
  const Database& database() const { return *db_; }
  Engine& engine() { return engine_; }
  const Engine& engine() const { return engine_; }
  const ProgramIr& program() const { return program_; }
  const ProgramAst& ast() const { return ast_; }
  const ProgramAst& expanded_ast() const { return expanded_ast_; }
  const Stratification& stratification() const { return stratification_; }
  const std::vector<QueryAst>& stored_queries() const { return ast_.queries; }
  const EvalStats& last_eval_stats() const { return last_eval_stats_; }
  // Profile of the last Evaluate(); empty unless it ran with
  // EvalOptions::profile set.
  const EvalProfile& last_eval_profile() const { return last_eval_profile_; }
  bool evaluated() const { return evaluated_; }
  // The EDB store: one counted relation per predicate holding every
  // loaded ground fact, with the fact's load count as its derivation count.
  const Database& edb() const { return edb_; }
  // Store predicates without proper rules, as of the last Analyze() (plus
  // any AddFacts() since); their store relations seed every evaluation.
  // Store predicates that have proper rules enter program() as fact rules.
  const std::vector<PredId>& edb_preds() const { return edb_preds_; }
  // How the session's Evaluate() calls resolved (for tests and benches):
  // cache hits (model already current), incremental maintenance runs, and
  // full from-scratch materializations.
  size_t eval_cache_hits() const { return eval_cache_hits_; }
  size_t incremental_evals() const { return incremental_evals_; }
  size_t full_evals() const { return full_evals_; }
  // Bumped every time Analyze() rebuilds the program/stratification.
  // ldl::Service uses it to decide whether a new snapshot can share the
  // previous snapshot's analyzed-program state.
  uint64_t analysis_epoch() const { return analysis_epoch_; }

 private:
  Status EnsureAnalyzed();
  Status EnsureEvaluated(const EvalOptions& options);
  StatusOr<LiteralIr> ParseGoal(std::string_view goal_text);
  // Maintains the live model from the pending delta: the changed
  // predicates' appended rows and pending_removed_. On engine failure the
  // model and the delta are dropped, so a half-applied maintenance pass is
  // never observed or retried; the next Evaluate() rebuilds from scratch.
  Status EvaluateIncremental(const EvalOptions& options);
  // Load() and AddFacts(): parses `source`, sends its ground facts to the
  // EDB store and everything else to ast_. With `keep_analysis` a batch of
  // extensional facts keeps the analysis and updates the live model;
  // otherwise the analysis is invalidated.
  Status Ingest(std::string_view source, bool keep_analysis);
  // Snapshots per-predicate row counts after a successful evaluation (the
  // deltas of the next incremental round start past these).
  void RecordWatermarks();
  // Marks `pred` as carrying new EDB rows since the last evaluation.
  void MarkChanged(PredId pred);
  void ClearPendingDelta();
  // True when `options` matches the configuration of the last evaluation
  // closely enough to reuse its model and stats verbatim.
  bool SameEvalConfig(const EvalOptions& options) const;

  Interner interner_;
  TermFactory factory_;
  Catalog catalog_;
  Engine engine_;

  ProgramAst ast_;           // rules and stored queries as loaded (LDL1.5)
  ProgramAst expanded_ast_;  // ast_ after ExpandLdl15
  ProgramIr program_;        // rules, plus fact rules of derived store preds
  Database edb_;             // the EDB store (counted relations)
  std::vector<PredId> edb_preds_;
  Stratification stratification_;
  std::unique_ptr<Database> db_;

  Ldl15Options ldl15_options_;
  WellformedOptions wellformed_options_;
  EvalStats last_eval_stats_;
  EvalProfile last_eval_profile_;
  bool analyzed_ = false;
  bool evaluated_ = false;
  uint64_t analysis_epoch_ = 0;
  // Whether the cached evaluation collected a profile (EnsureEvaluated
  // re-runs when a profiled query hits an unprofiled cached model).
  bool evaluated_with_profile_ = false;

  // Incremental maintenance state. eval_watermarks_[p] is relation(p)'s
  // row count at the end of the last evaluation; rows appended past it are
  // the pending deltas of the predicates flagged in pending_changed_.
  std::vector<size_t> eval_watermarks_;
  std::vector<bool> pending_changed_;
  bool pending_delta_ = false;
  // Facts whose store count reached zero while a model was live:
  // the deletion half of the pending delta, consumed by the next
  // EvaluateIncremental().
  std::vector<std::pair<PredId, Tuple>> pending_removed_;
  // Options of the evaluation that produced the current model (cache key).
  EvalOptions last_eval_options_;
  size_t eval_cache_hits_ = 0;
  size_t incremental_evals_ = 0;
  size_t full_evals_ = 0;
};

// Formats query-result tuples as sorted fact strings, e.g.
// "ancestor(adam, bob)" -- handy for golden tests and examples.
std::vector<std::string> FormatFacts(const Session& session, PredId pred,
                                     const std::vector<Tuple>& tuples);

}  // namespace ldl

#endif  // LDL1_LDL_LDL_H_
