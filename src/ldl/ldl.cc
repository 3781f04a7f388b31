#include "ldl/ldl.h"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <sstream>

#include "base/str_util.h"
#include "eval/bindings.h"
#include "parser/parser.h"

namespace ldl {

namespace {

// The one authoritative strategy-name table: ToString, ParseQueryStrategy
// and QueryStrategyNames all derive from it, so a new strategy added here
// shows up in every help text and error message.
struct StrategyName {
  QueryStrategy strategy;
  const char* canonical;
  const char* alias = nullptr;  // accepted by Parse, never printed
};
constexpr StrategyName kStrategyNames[] = {
    {QueryStrategy::kModel, "model"},
    {QueryStrategy::kMagic, "magic"},
    {QueryStrategy::kMagicSupplementary, "magic-sup", "magic-supplementary"},
    {QueryStrategy::kMagicSupplementary, "magic-sup", "sup"},
    {QueryStrategy::kTopDown, "topdown", "top-down"},
};

// Lowers and instantiates the head of a body-less clause. An error when a
// head argument does not lower (grouping brackets, malformed terms) or the
// clause has a body; `unbound` marks a fact with variables.
StatusOr<InstantiationResult> LowerFact(TermFactory& factory,
                                        const RuleAst& rule) {
  if (!rule.is_fact()) return InvalidArgumentError("not a fact");
  Tuple args;
  args.reserve(rule.head.args.size());
  for (const TermExpr& arg : rule.head.args) {
    LDL_ASSIGN_OR_RETURN(const Term* lowered, LowerTerm(factory, arg));
    args.push_back(lowered);
  }
  return InstantiateArgs(factory, args, Subst());
}

}  // namespace

const char* ToString(QueryStrategy strategy) {
  for (const StrategyName& entry : kStrategyNames) {
    if (entry.strategy == strategy) return entry.canonical;
  }
  return "?";
}

const char* QueryStrategyNames() { return "model, magic, magic-sup, topdown"; }

StatusOr<QueryStrategy> ParseQueryStrategy(std::string_view name) {
  for (const StrategyName& entry : kStrategyNames) {
    if (name == entry.canonical ||
        (entry.alias != nullptr && name == entry.alias)) {
      return entry.strategy;
    }
  }
  return InvalidArgumentError(StrCat("unknown query strategy '", name,
                                     "' (expected one of: ",
                                     QueryStrategyNames(), ")"));
}

std::vector<std::string> FormatFacts(const Session& session, PredId pred,
                                     const std::vector<Tuple>& tuples) {
  std::vector<std::string> out;
  out.reserve(tuples.size());
  for (const Tuple& tuple : tuples) out.push_back(session.FormatFact(pred, tuple));
  std::sort(out.begin(), out.end());
  return out;
}

Session::Session(PlanCache* shared_plans)
    : factory_(&interner_),
      catalog_(&interner_),
      engine_(&factory_, &catalog_, shared_plans),
      edb_(&catalog_),
      db_(std::make_unique<Database>(&catalog_)) {}

Status Session::Load(std::string_view source) {
  return Ingest(source, /*keep_analysis=*/false);
}

Status Session::AddFacts(std::string_view source) {
  return Ingest(source, /*keep_analysis=*/true);
}

Status Session::Ingest(std::string_view source, bool keep_analysis) {
  LDL_ASSIGN_OR_RETURN(ProgramAst parsed, ParseProgram(source, &interner_));
  keep_analysis = keep_analysis && analyzed_ && parsed.queries.empty();
  for (QueryAst& query : parsed.queries) ast_.queries.push_back(std::move(query));

  // Ground facts go straight into the store. Everything else -- rules and
  // facts with grouping, variables or malformed terms -- waits in ast_ for
  // Analyze(), which expands it and reports its errors.
  std::vector<std::pair<PredId, Tuple>> added;  // only while keep_analysis
  for (RuleAst& rule : parsed.rules) {
    StatusOr<InstantiationResult> fact = LowerFact(factory_, rule);
    if (!fact.ok() || fact->unbound) {
      ast_.rules.push_back(std::move(rule));
      keep_analysis = false;
      continue;
    }
    PredId pred = catalog_.GetOrCreate(
        rule.head.predicate, static_cast<uint32_t>(rule.head.args.size()));
    // Facts of a derived predicate enter the program as fact rules, which
    // takes a new analysis.
    if (catalog_.info(pred).has_rules) keep_analysis = false;
    if (fact->outside_universe) continue;
    Relation& stored = edb_.relation(pred);
    stored.EnableCounts();  // no-op once the relation holds rows
    stored.Insert(fact->tuple);
    if (keep_analysis) added.emplace_back(pred, std::move(fact->tuple));
  }
  if (!keep_analysis) {
    analyzed_ = false;
    evaluated_ = false;
    ClearPendingDelta();
    return Status::OK();
  }

  // The analysis stays valid. If a model is live, append the rows directly
  // and mark genuinely new facts as the pending delta for the next
  // (incremental) Evaluate().
  for (const auto& [pred, tuple] : added) {
    if (std::find(edb_preds_.begin(), edb_preds_.end(), pred) ==
        edb_preds_.end()) {
      edb_preds_.push_back(pred);
    }
    if (!evaluated_) continue;
    Relation& rel = db_->relation(pred);
    const size_t rows_before = rel.row_count();
    if (db_->AddFact(pred, tuple)) {
      if (rel.row_count() == rows_before) {
        // The insert revived a tombstoned row: an earlier incremental
        // deletion already retracted its consequences, and the insert
        // delta machinery cannot window a revived row sitting below the
        // watermark. Conservative fallback: drop the model and let the
        // next Evaluate() rebuild from scratch.
        InvalidateModel();
      } else {
        MarkChanged(pred);
      }
    } else if (!pending_removed_.empty()) {
      // The fact is already a live model row: if its deletion is still
      // pending from an earlier RemoveFacts, re-adding it cancels the
      // deletion.
      auto it = std::find(pending_removed_.begin(), pending_removed_.end(),
                          std::make_pair(pred, tuple));
      if (it != pending_removed_.end()) pending_removed_.erase(it);
    }
  }
  return Status::OK();
}

Status Session::RemoveFacts(std::string_view source) {
  LDL_ASSIGN_OR_RETURN(ProgramAst parsed, ParseProgram(source, &interner_));
  if (!parsed.queries.empty()) {
    return InvalidArgumentError("RemoveFacts accepts only facts");
  }
  for (const RuleAst& rule : parsed.rules) {
    if (!rule.is_fact()) {
      return InvalidArgumentError("RemoveFacts accepts only facts");
    }
  }
  LDL_RETURN_IF_ERROR(EnsureAnalyzed());
  // Pass 1: validate and lower the whole batch before touching any session
  // state, so an error anywhere in the batch (derived predicate,
  // non-ground fact, grouping) leaves the session observably unchanged --
  // RemoveFacts is all-or-nothing.
  std::vector<std::pair<PredId, Tuple>> batch;
  batch.reserve(parsed.rules.size());
  for (const RuleAst& rule : parsed.rules) {
    PredId pred = catalog_.Find(rule.head.predicate,
                                static_cast<uint32_t>(rule.head.args.size()));
    if (pred == kInvalidPred) continue;  // unknown predicate: no-op
    if (catalog_.info(pred).has_rules) {
      return InvalidArgumentError(
          "RemoveFacts cannot remove facts of a derived predicate");
    }
    LDL_ASSIGN_OR_RETURN(InstantiationResult inst, LowerFact(factory_, rule));
    if (inst.unbound) {
      return InvalidArgumentError("RemoveFacts needs ground facts");
    }
    if (inst.outside_universe) continue;
    batch.emplace_back(pred, std::move(inst.tuple));
  }
  // Pass 2: apply. Each removal decrements the fact's store count; the fact
  // only becomes a pending deletion for the live model when its count
  // reaches zero (multiset semantics).
  for (std::pair<PredId, Tuple>& fact : batch) {
    Relation& stored = edb_.relation(fact.first);
    const size_t row = stored.Find(fact.second);
    if (row == Relation::npos || !stored.IsLive(row)) continue;  // absent
    if (stored.DecrementDerivation(row) && evaluated_) {
      pending_removed_.push_back(std::move(fact));
      pending_delta_ = true;
    }
  }
  return Status::OK();
}

void Session::InvalidateModel() {
  evaluated_ = false;
  evaluated_with_profile_ = false;
  ClearPendingDelta();
}

Status Session::LoadFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) return NotFoundError(StrCat("cannot open ", path));
  std::ostringstream buffer;
  buffer << file.rdbuf();
  Status status = Load(buffer.str());
  if (!status.ok()) {
    return Status(status.code(), StrCat(path, ": ", status.message()));
  }
  return status;
}

Status Session::Analyze() {
  LDL_ASSIGN_OR_RETURN(expanded_ast_, ExpandLdl15(ast_, &interner_, ldl15_options_));
  LDL_ASSIGN_OR_RETURN(ProgramIr program,
                       LowerProgram(factory_, catalog_, expanded_ast_));
  LDL_RETURN_IF_ERROR(CheckProgramWellformed(catalog_, program, wellformed_options_));

  // The program's heads are its derived predicates. Ground facts among its
  // rules come from expanding grouping facts (the store took every other
  // fact); they stay fact rules, and flagging their predicates lets magic
  // and top-down evaluation consult them.
  std::vector<bool> derived(catalog_.size(), false);
  for (const RuleIr& rule : program.rules) {
    derived[rule.head_pred] = true;
    if (rule.is_fact()) catalog_.mutable_info(rule.head_pred).has_rules = true;
  }
  // A derived store predicate joins the program through its live rows as
  // fact rules, ahead of the rules (they take part in stratification and
  // magic rewriting); every other store predicate seeds evaluation
  // directly.
  edb_preds_.clear();
  std::vector<RuleIr> fact_rules;
  for (PredId pred = 0; pred < derived.size(); ++pred) {
    const Relation* stored = edb_.FindRelation(pred);
    if (stored == nullptr || stored->row_count() == 0) continue;
    if (!derived[pred]) {
      edb_preds_.push_back(pred);
      continue;
    }
    stored->ForEachRow(0, stored->row_count(), [&](size_t, RowRef row) {
      RuleIr& fact = fact_rules.emplace_back();
      fact.head_pred = pred;
      fact.head_args.assign(row.begin(), row.end());
    });
  }
  program.rules.insert(program.rules.begin(),
                       std::make_move_iterator(fact_rules.begin()),
                       std::make_move_iterator(fact_rules.end()));

  LDL_ASSIGN_OR_RETURN(stratification_, Stratify(catalog_, program));
  program_ = std::move(program);
  analyzed_ = true;
  evaluated_ = false;
  ++analysis_epoch_;
  ClearPendingDelta();
  return Status::OK();
}

Status Session::EnsureAnalyzed() {
  if (analyzed_) return Status::OK();
  return Analyze();
}

bool Session::SameEvalConfig(const EvalOptions& options) const {
  const EvalOptions& last = last_eval_options_;
  return options.mode == last.mode && options.max_rounds == last.max_rounds &&
         options.max_facts == last.max_facts &&
         options.cost_based == last.cost_based &&
         options.replan_cost_ratio == last.replan_cost_ratio &&
         options.builtin_limits.max_union_enumeration ==
             last.builtin_limits.max_union_enumeration &&
         options.builtin_limits.max_subset_enumeration ==
             last.builtin_limits.max_subset_enumeration;
}

void Session::RecordWatermarks() {
  eval_watermarks_.resize(catalog_.size());
  for (PredId p = 0; p < catalog_.size(); ++p) {
    eval_watermarks_[p] = db_->relation(p).row_count();
  }
}

void Session::MarkChanged(PredId pred) {
  if (pending_changed_.size() < catalog_.size()) {
    pending_changed_.resize(catalog_.size(), false);
  }
  pending_changed_[pred] = true;
  pending_delta_ = true;
}

void Session::ClearPendingDelta() {
  pending_changed_.assign(pending_changed_.size(), false);
  pending_removed_.clear();
  pending_delta_ = false;
}

Status Session::Evaluate(const EvalOptions& options) {
  LDL_RETURN_IF_ERROR(EnsureAnalyzed());
  if (evaluated_ && !pending_delta_ &&
      (!options.profile || evaluated_with_profile_) && SameEvalConfig(options)) {
    // Nothing changed since the model was materialized under this same
    // configuration: the model, stats and profile are all current.
    ++eval_cache_hits_;
    return Status::OK();
  }
  if (evaluated_ && pending_delta_) return EvaluateIncremental(options);

  db_ = std::make_unique<Database>(&catalog_);
  db_->CopyFrom(edb_, edb_preds_);
  last_eval_stats_ = EvalStats();
  last_eval_profile_.Clear();
  LDL_RETURN_IF_ERROR(engine_.EvaluateProgram(
      program_, stratification_, db_.get(), options, &last_eval_stats_,
      options.profile ? &last_eval_profile_ : nullptr));
  evaluated_ = true;
  evaluated_with_profile_ = options.profile;
  last_eval_options_ = options;
  ++full_evals_;
  RecordWatermarks();
  ClearPendingDelta();
  return Status::OK();
}

Status Session::EvaluateIncremental(const EvalOptions& options) {
  last_eval_stats_ = EvalStats();
  last_eval_profile_.Clear();
  Status status = engine_.EvaluateIncremental(
      program_, stratification_, db_.get(), eval_watermarks_, pending_changed_,
      pending_removed_, options, &last_eval_stats_,
      options.profile ? &last_eval_profile_ : nullptr);
  if (!status.ok()) {
    // A failure mid-maintenance can leave the database half-updated; drop
    // the model so the next evaluation rebuilds from scratch.
    InvalidateModel();
    return status;
  }
  evaluated_with_profile_ = options.profile;
  last_eval_options_ = options;
  ++incremental_evals_;
  RecordWatermarks();
  ClearPendingDelta();
  return Status::OK();
}

Status Session::EvaluateInto(const Stratification& stratification, Database* db,
                             const EvalOptions& options) {
  LDL_RETURN_IF_ERROR(EnsureAnalyzed());
  db->CopyFrom(edb_, edb_preds_);
  return engine_.EvaluateProgram(program_, stratification, db, options);
}

Status Session::EnsureEvaluated(const EvalOptions& options) {
  // A cached model evaluated without profiling can't serve a profiled
  // query; re-run the (idempotent) evaluation to collect the profile. A
  // pending EDB delta routes through Evaluate() for incremental
  // maintenance.
  if (evaluated_ && !pending_delta_ &&
      (!options.profile || evaluated_with_profile_)) {
    return Status::OK();
  }
  return Evaluate(options);
}

StatusOr<LiteralIr> Session::ParseGoal(std::string_view goal_text) {
  LDL_ASSIGN_OR_RETURN(LiteralAst goal_ast, ParseLiteralText(goal_text, &interner_));
  if (goal_ast.negated || goal_ast.builtin != BuiltinKind::kNone) {
    return InvalidArgumentError("queries must be positive relational literals");
  }
  return LowerLiteral(factory_, catalog_, goal_ast);
}

StatusOr<QueryResult> QueryViaTopDown(TermFactory* factory, Catalog* catalog,
                                      const ProgramIr& program,
                                      const Stratification& stratification,
                                      const std::vector<PredId>& edb_preds,
                                      const LiteralIr& goal,
                                      const QueryOptions& options,
                                      const Database& edb) {
  // Memoized top-down evaluation against a fresh EDB.
  QueryResult result;
  Database scratch(catalog);
  scratch.CopyFrom(edb, edb_preds);
  TopDownOptions topdown_options;
  topdown_options.builtin_limits = options.eval.builtin_limits;
  TopDownEngine topdown(factory, catalog, &program, &stratification, &scratch,
                        topdown_options);
  if (options.eval.profile) {
    result.profile.ReserveRules(program.rules.size());
    topdown.set_profile(&result.profile);
  }
  uint64_t topdown_wall = 0;
  ScopedWallTimer timer(options.eval.profile ? &topdown_wall : nullptr);
  LDL_ASSIGN_OR_RETURN(result.tuples, topdown.Query(goal));
  timer.Stop();
  result.stats.facts_derived = topdown.stats().answers;
  result.stats.rule_firings = topdown.stats().expansions;
  result.stats.iterations = topdown.stats().restarts;
  if (options.eval.profile) {
    result.profile.add_total_wall_ns(topdown_wall);
    TopDownProfile& rollup = result.profile.topdown();
    rollup.used = true;
    rollup.wall_ns = topdown_wall;
    rollup.calls = topdown.stats().calls;
    rollup.expansions = topdown.stats().expansions;
    rollup.answers = topdown.stats().answers;
    rollup.restarts = topdown.stats().restarts;
    rollup.tables = topdown.table_count();
  }
  return result;
}

StatusOr<QueryResult> QueryViaMagic(Engine* engine, const ProgramIr& program,
                                    const LiteralIr& goal,
                                    const QueryOptions& options,
                                    const Database& edb,
                                    std::mutex* rewrite_mu) {
  // Rewrite for this goal and evaluate in a scratch database seeded with
  // the EDB. The rewrite registers adorned/magic predicates in the shared
  // catalog, so concurrent callers serialize it under `rewrite_mu`;
  // evaluation below runs outside the lock.
  QueryResult result;
  MagicOptions magic_options;
  magic_options.supplementary =
      options.strategy == QueryStrategy::kMagicSupplementary;
  StatusOr<MagicProgram> magic = [&] {
    std::unique_lock<std::mutex> lock;
    if (rewrite_mu != nullptr) lock = std::unique_lock<std::mutex>(*rewrite_mu);
    return MagicRewrite(program, engine->catalog(), goal, magic_options);
  }();
  LDL_RETURN_IF_ERROR(magic.status());
  Database magic_db(engine->catalog());
  // Only EDB predicates the rewritten program consults.
  magic_db.CopyFrom(edb, magic->edb_preds);
  LDL_RETURN_IF_ERROR(engine->EvaluateSaturating(magic->rules, &magic_db,
                                                 options.eval, &result.stats,
                                                 &result.profile));
  LiteralIr adorned_goal = goal;
  adorned_goal.pred = magic->answer_pred;
  LDL_ASSIGN_OR_RETURN(result.tuples, engine->Query(adorned_goal, magic_db));
  return result;
}

StatusOr<PreparedQuery> Session::Prepare(std::string_view goal_text) {
  LDL_RETURN_IF_ERROR(EnsureAnalyzed());
  LDL_ASSIGN_OR_RETURN(LiteralIr goal, ParseGoal(goal_text));
  return PreparedQuery(goal_text, std::move(goal));
}

StatusOr<QueryResult> Session::Query(std::string_view goal_text,
                                     const QueryOptions& options) {
  LDL_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(goal_text));
  return Query(prepared, options);
}

StatusOr<QueryResult> Session::Query(const PreparedQuery& prepared,
                                     const QueryOptions& options) {
  LDL_RETURN_IF_ERROR(EnsureAnalyzed());
  if (!prepared.valid()) {
    return InvalidArgumentError("query was not prepared");
  }
  const LiteralIr& goal = prepared.goal();
  const bool goal_has_rules = catalog_.info(goal.pred).has_rules;
  if (options.strategy == QueryStrategy::kTopDown && goal_has_rules) {
    return QueryViaTopDown(&factory_, &catalog_, program_, stratification_,
                           edb_preds_, goal, options, edb_);
  }
  const bool magic_strategy =
      options.strategy == QueryStrategy::kMagic ||
      options.strategy == QueryStrategy::kMagicSupplementary;
  if (!magic_strategy || !goal_has_rules) {
    QueryResult result;
    LDL_RETURN_IF_ERROR(EnsureEvaluated(options.eval));
    LDL_ASSIGN_OR_RETURN(result.tuples, engine_.Query(goal, *db_));
    result.stats = last_eval_stats_;
    if (options.eval.profile) result.profile = last_eval_profile_;
    return result;
  }
  return QueryViaMagic(&engine_, program_, goal, options, edb_);
}

StatusOr<std::string> Session::Explain(std::string_view fact_text,
                                       const ExplainOptions& options) {
  LDL_RETURN_IF_ERROR(EnsureEvaluated({}));
  LDL_ASSIGN_OR_RETURN(LiteralIr goal, ParseGoal(fact_text));
  InstantiationResult inst = InstantiateArgs(factory_, goal.args, Subst());
  if (inst.unbound) {
    return InvalidArgumentError("Explain needs a ground fact, not a pattern");
  }
  if (inst.outside_universe) {
    return InvalidArgumentError("fact lies outside the LDL1 universe");
  }
  LDL_ASSIGN_OR_RETURN(std::unique_ptr<Derivation> derivation,
                       ldl::Explain(factory_, catalog_, program_, *db_,
                                    goal.pred, inst.tuple, options));
  return FormatDerivation(factory_, catalog_, *derivation);
}

StatusOr<std::vector<TerminationWarning>> Session::TerminationWarnings() {
  LDL_RETURN_IF_ERROR(EnsureAnalyzed());
  return AnalyzeTermination(catalog_, program_);
}

std::string Session::FormatFact(PredId pred, const Tuple& tuple) const {
  return ldl::FormatFact(factory_, catalog_, pred, tuple);
}

std::string Session::FormatTuple(const Tuple& tuple) const {
  return ldl::FormatTuple(factory_, tuple);
}

}  // namespace ldl
