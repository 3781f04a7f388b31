// Facade behaviors: incremental loading, re-analysis, error propagation,
// formatting, stored queries.
#include <gtest/gtest.h>

#include "ldl/ldl.h"

namespace ldl {
namespace {

TEST(Session, IncrementalLoadInvalidatesAnalysis) {
  Session session;
  ASSERT_TRUE(session.Load("p(a).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  ASSERT_TRUE(session.Load("q(X) :- p(X).").ok());
  auto result = session.Query("q(X)");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->tuples.size(), 1u);
}

TEST(Session, ParseErrorsSurface) {
  Session session;
  Status status = session.Load("p(a");
  EXPECT_EQ(status.code(), StatusCode::kParseError);
}

TEST(Session, AnalysisErrorsSurfaceOnQuery) {
  Session session;
  ASSERT_TRUE(session.Load("p(1). p(<X>) :- p(X).").ok());
  auto result = session.Query("p(X)");
  EXPECT_EQ(result.status().code(), StatusCode::kNotAdmissible);
}

TEST(Session, QueryValidation) {
  Session session;
  ASSERT_TRUE(session.Load("p(a).").ok());
  EXPECT_FALSE(session.Query("!p(X)").ok());
  EXPECT_FALSE(session.Query("X = 1").ok());
  EXPECT_FALSE(session.Query("p(").ok());
}

TEST(Session, QueryOnUnknownPredicate) {
  Session session;
  ASSERT_TRUE(session.Load("p(a).").ok());
  // Unknown predicates simply have empty relations.
  auto result = session.Query("zzz(X)");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->tuples.empty());
}

TEST(Session, StoredQueriesAreKept) {
  Session session;
  ASSERT_TRUE(session.Load("p(a).\n? p(X).").ok());
  ASSERT_EQ(session.stored_queries().size(), 1u);
}

TEST(Session, FormatFactRendersSets) {
  Session session;
  ASSERT_TRUE(session.Load("p(a, {1, 2}).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  PredId p = session.catalog().Find("p", 2);
  auto rows = session.database().relation(p).Snapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(session.FormatFact(p, rows[0]), "p(a, {1, 2})");
  EXPECT_EQ(session.FormatTuple(rows[0]), "(a, {1, 2})");
}

TEST(Session, EvaluateIsRepeatable) {
  Session session;
  ASSERT_TRUE(session.Load("e(1, 2). e(2, 3).\n"
                           "t(X, Y) :- e(X, Y).\n"
                           "t(X, Y) :- t(X, Z), e(Z, Y).")
                  .ok());
  ASSERT_TRUE(session.Evaluate().ok());
  size_t first = session.database().TotalFacts();
  ASSERT_TRUE(session.Evaluate().ok());
  EXPECT_EQ(session.database().TotalFacts(), first);
}

TEST(Session, RepeatEvaluateIsACacheHit) {
  Session session;
  ASSERT_TRUE(session.Load("e(1, 2). t(X, Y) :- e(X, Y).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  ASSERT_TRUE(session.Evaluate().ok());
  ASSERT_TRUE(session.Evaluate().ok());
  EXPECT_EQ(session.full_evals(), 1u);
  EXPECT_EQ(session.eval_cache_hits(), 2u);

  // A different evaluation configuration is not a hit...
  EvalOptions naive;
  naive.mode = EvalOptions::Mode::kNaive;
  ASSERT_TRUE(session.Evaluate(naive).ok());
  EXPECT_EQ(session.full_evals(), 2u);
  // ... but repeating it is.
  ASSERT_TRUE(session.Evaluate(naive).ok());
  EXPECT_EQ(session.eval_cache_hits(), 3u);

  // InvalidateModel forces the next Evaluate to rematerialize.
  session.InvalidateModel();
  EXPECT_FALSE(session.evaluated());
  ASSERT_TRUE(session.Evaluate(naive).ok());
  EXPECT_EQ(session.full_evals(), 3u);
}

TEST(Session, MagicFallsBackForExtensionalGoals) {
  Session session;
  ASSERT_TRUE(session.Load("p(a, b).").ok());
  QueryOptions options;
  options.strategy = ldl::QueryStrategy::kMagic;
  auto result = session.Query("p(a, X)", options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->tuples.size(), 1u);
}

TEST(Session, MagicQueryDoesNotPolluteSessionDatabase) {
  Session session;
  ASSERT_TRUE(session.Load("p(a, b). p(b, c).\n"
                           "anc(X, Y) :- p(X, Y).\n"
                           "anc(X, Y) :- p(X, Z), anc(Z, Y).")
                  .ok());
  ASSERT_TRUE(session.Evaluate().ok());
  size_t facts = session.database().TotalFacts();
  QueryOptions options;
  options.strategy = ldl::QueryStrategy::kMagic;
  ASSERT_TRUE(session.Query("anc(a, X)", options).ok());
  EXPECT_EQ(session.database().TotalFacts(), facts);
}

TEST(Session, DuplicateFactsCollapse) {
  Session session;
  ASSERT_TRUE(session.Load("p(a). p(a). p({1, 1}). p({1}).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  PredId p = session.catalog().Find("p", 1);
  EXPECT_EQ(session.database().relation(p).size(), 2u);  // p(a), p({1})
}

TEST(Session, SconsFactsEvaluate) {
  Session session;
  ASSERT_TRUE(session.Load("p(scons(1, scons(2, {}))).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  auto result = session.Query("p({1, 2})");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tuples.size(), 1u);
}

TEST(Session, ConstIntrospectionAccessors) {
  Session session;
  ASSERT_TRUE(session.Load("p(a). q(X) :- p(X).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  const Session& view = session;
  PredId p = view.catalog().Find("p", 1);
  ASSERT_NE(p, kInvalidPred);
  EXPECT_EQ(view.database().relation(p).size(), 1u);
  EXPECT_FALSE(view.program().rules.empty());
  EXPECT_GT(view.interner().size(), 0u);
  EXPECT_EQ(view.factory().interner(), &view.interner());
  EXPECT_EQ(view.engine().catalog(), &view.catalog());
}

TEST(Session, QueryStrategyToStringParseRoundTrip) {
  for (QueryStrategy strategy :
       {QueryStrategy::kModel, QueryStrategy::kMagic,
        QueryStrategy::kMagicSupplementary, QueryStrategy::kTopDown}) {
    auto parsed = ParseQueryStrategy(ToString(strategy));
    ASSERT_TRUE(parsed.ok()) << ToString(strategy);
    EXPECT_EQ(*parsed, strategy);
  }
  // Aliases accepted by Parse but never printed by ToString.
  EXPECT_EQ(*ParseQueryStrategy("magic-supplementary"),
            QueryStrategy::kMagicSupplementary);
  EXPECT_EQ(*ParseQueryStrategy("sup"), QueryStrategy::kMagicSupplementary);
  EXPECT_EQ(*ParseQueryStrategy("top-down"), QueryStrategy::kTopDown);
  // Unknown names fail with a message enumerating the canonical names.
  auto bad = ParseQueryStrategy("bottom-up");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find(QueryStrategyNames()),
            std::string::npos);
}

TEST(Session, PreparedQueryReuseAcrossStrategies) {
  Session session;
  ASSERT_TRUE(session.Load(R"(
    edge(1, 2). edge(2, 3). edge(3, 4).
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
  )").ok());
  auto prepared = session.Prepare("path(1, X)");
  ASSERT_TRUE(prepared.ok());
  EXPECT_TRUE(prepared->valid());
  EXPECT_EQ(prepared->text(), "path(1, X)");
  for (QueryStrategy strategy :
       {QueryStrategy::kModel, QueryStrategy::kMagic,
        QueryStrategy::kMagicSupplementary, QueryStrategy::kTopDown}) {
    QueryOptions options;
    options.strategy = strategy;
    auto result = session.Query(*prepared, options);
    ASSERT_TRUE(result.ok()) << ToString(strategy);
    EXPECT_EQ(result->tuples.size(), 3u) << ToString(strategy);
  }
}

TEST(Session, PreparedQuerySurvivesAddFacts) {
  Session session;
  ASSERT_TRUE(session.Load("edge(1, 2). path(X, Y) :- edge(X, Y).").ok());
  auto prepared = session.Prepare("path(X, Y)");
  ASSERT_TRUE(prepared.ok());
  auto before = session.Query(*prepared);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->tuples.size(), 1u);
  // Answers reflect the model at query time, not preparation time.
  ASSERT_TRUE(session.AddFacts("edge(2, 3).").ok());
  auto after = session.Query(*prepared);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->tuples.size(), 2u);
}

TEST(Session, DefaultPreparedQueryRejected) {
  Session session;
  ASSERT_TRUE(session.Load("p(a).").ok());
  PreparedQuery unprepared;
  EXPECT_FALSE(unprepared.valid());
  EXPECT_FALSE(session.Query(unprepared).ok());
}

TEST(Session, LastEvalStatsPopulated) {
  Session session;
  ASSERT_TRUE(session.Load("e(1, 2).\nt(X, Y) :- e(X, Y).").ok());
  ASSERT_TRUE(session.Evaluate().ok());
  EXPECT_GT(session.last_eval_stats().rule_firings, 0u);
  EXPECT_GT(session.last_eval_stats().facts_derived, 0u);
}

// A grouping fact stays in the AST; the ground facts its expansion emits
// must still reach goal-directed evaluation.
TEST(Session, GroupingFactAnswersUnderEveryStrategy) {
  Session session;
  ASSERT_TRUE(session.Load("g(<a>). h(X) :- g(X).").ok());
  for (QueryStrategy strategy : {QueryStrategy::kModel, QueryStrategy::kMagic,
                                 QueryStrategy::kTopDown}) {
    QueryOptions options;
    options.strategy = strategy;
    auto result = session.Query("h(X)", options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(FormatFacts(session, session.catalog().Find("h", 1),
                          result->tuples),
              std::vector<std::string>{"h({a})"})
        << ToString(strategy);
  }
}

// A fact removed before its predicate gains a rule stays removed: the new
// rule derives p(b) only, under every strategy, whether or not a model was
// materialized between the steps.
TEST(Session, RemovedFactStaysRemovedWhenPredicateGainsRule) {
  for (bool evaluate_between : {false, true}) {
    SCOPED_TRACE(evaluate_between ? "evaluated between steps"
                                  : "no evaluation between steps");
    Session session;
    ASSERT_TRUE(session.Load("p(a). q(b).").ok());
    if (evaluate_between) {
      ASSERT_TRUE(session.Evaluate().ok());
    }
    ASSERT_TRUE(session.RemoveFacts("p(a).").ok());
    if (evaluate_between) {
      ASSERT_TRUE(session.Evaluate().ok());
    }
    ASSERT_TRUE(session.Load("p(X) :- q(X).").ok());
    for (QueryStrategy strategy : {QueryStrategy::kModel, QueryStrategy::kMagic,
                                   QueryStrategy::kTopDown}) {
      QueryOptions options;
      options.strategy = strategy;
      auto result = session.Query("p(X)", options);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(FormatFacts(session, session.catalog().Find("p", 1),
                            result->tuples),
                std::vector<std::string>{"p(b)"})
          << ToString(strategy);
    }
  }
}

}  // namespace
}  // namespace ldl
