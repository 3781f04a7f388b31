// The memoized top-down (QSQ-style) engine: correctness against the
// stratified bottom-up reference on recursion, negation, grouping and sets.
#include <gtest/gtest.h>

#include <algorithm>

#include "base/str_util.h"
#include "ldl/ldl.h"
#include "parser/parser.h"
#include "workload/workload.h"

namespace ldl {
namespace {

std::vector<std::string> Render(Session& session, const std::vector<Tuple>& tuples) {
  std::vector<std::string> out;
  for (const Tuple& tuple : tuples) out.push_back(session.FormatTuple(tuple));
  std::sort(out.begin(), out.end());
  return out;
}

// Runs the goal through both engines and expects identical answers.
void ExpectAgreement(Session& session, const std::string& goal) {
  auto full = session.Query(goal);
  ASSERT_TRUE(full.ok()) << goal << ": " << full.status();
  QueryOptions topdown;
  topdown.strategy = ldl::QueryStrategy::kTopDown;
  auto td = session.Query(goal, topdown);
  ASSERT_TRUE(td.ok()) << goal << ": " << td.status();
  EXPECT_EQ(Render(session, full->tuples), Render(session, td->tuples)) << goal;
}

TEST(TopDown, LinearRecursionBoundAndFree) {
  Session session;
  ASSERT_TRUE(session.Load(ParentChain(40, "p")).ok());
  ASSERT_TRUE(session
                  .Load("a(X, Y) :- p(X, Y).\n"
                        "a(X, Y) :- p(X, Z), a(Z, Y).")
                  .ok());
  ExpectAgreement(session, "a(p5, X)");
  ExpectAgreement(session, "a(X, p39)");
  ExpectAgreement(session, "a(p0, p39)");
  ExpectAgreement(session, "a(p39, X)");  // empty
}

TEST(TopDown, NonLinearRecursion) {
  Session session;
  ASSERT_TRUE(session.Load(ParentChain(16, "e")).ok());
  ASSERT_TRUE(session
                  .Load("t(X, Y) :- e(X, Y).\n"
                        "t(X, Y) :- t(X, Z), t(Z, Y).")
                  .ok());
  ExpectAgreement(session, "t(p0, X)");
  ExpectAgreement(session, "t(X, Y)");
}

TEST(TopDown, BoundQueryTouchesLessThanFullEvaluation) {
  Session session;
  ASSERT_TRUE(session.Load(ParentChain(200, "p")).ok());
  ASSERT_TRUE(session
                  .Load("a(X, Y) :- p(X, Y).\n"
                        "a(X, Y) :- p(X, Z), a(Z, Y).")
                  .ok());
  QueryOptions topdown;
  topdown.strategy = ldl::QueryStrategy::kTopDown;
  auto result = session.Query("a(p190, X)", topdown);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->tuples.size(), 10u);
  // Only the suffix is tabled: far fewer than the 20k facts of the closure.
  EXPECT_LT(result->stats.facts_derived, 200u);
}

TEST(TopDown, StratifiedNegation) {
  Session session;
  ASSERT_TRUE(session
                  .Load("node(a). node(b). node(c). edge(a, b).\n"
                        "reach(a).\n"
                        "reach(Y) :- reach(X), edge(X, Y).\n"
                        "unreach(X) :- node(X), !reach(X).")
                  .ok());
  ExpectAgreement(session, "unreach(X)");
  ExpectAgreement(session, "unreach(c)");
  ExpectAgreement(session, "unreach(a)");  // empty
}

TEST(TopDown, ExistentialNegation) {
  Session session;
  ASSERT_TRUE(session
                  .Load("node(a). node(b). node(c).\n"
                        "edge(a, b). edge(b, c).\n"
                        "leaf(X) :- node(X), !edge(X, Z).")
                  .ok());
  ExpectAgreement(session, "leaf(X)");
}

TEST(TopDown, EdbNegationShapes) {
  // Negated EDB literals probe the columns the call binds and stop at the
  // first verified match: repeated residual variables, constants, no bound
  // column, functor and set patterns, an instantiation outside U, and rows
  // tombstoned by RemoveFacts must all agree with the bottom-up model.
  Session session;
  ASSERT_TRUE(session
                  .Load("node(a). node(b). node(c). node(d). num(1). num(2).\n"
                        "r(a, b, b). r(b, c, d). r(c, f, g). r(c, e, e).\n"
                        "s(a, k). s(b, m). s(c, k).\n"
                        "e(a, b). e(b, c). e(b, d).\n"
                        "f1(a, f(1)). f1(b, g(2)).\n"
                        "hs(a, {1, 2}). hs(b, {1}). hs(1, {1, 2}).\n"
                        "rep(X) :- node(X), !r(X, Z, Z).\n"
                        "cst(X) :- node(X), !s(X, k).\n"
                        "loop(X) :- node(X), !e(Z, Z).\n"
                        "edges(X) :- node(X), !e(Z, W).\n"
                        "fun(X) :- node(X), !f1(X, f(Z)).\n"
                        "set(X) :- node(X), !hs(X, {1, Z}).\n"
                        "outside(N) :- num(N), !hs(N, scons(1, N)).\n"
                        "leaf(X) :- node(X), !e(X, Z).")
                  .ok());
  for (const char* goal : {"rep(X)", "rep(c)", "cst(X)", "loop(X)", "edges(X)",
                           "fun(X)", "set(X)", "outside(N)", "leaf(X)",
                           "leaf(b)"}) {
    ExpectAgreement(session, goal);
  }
  ASSERT_TRUE(session.RemoveFacts("e(b, c). e(b, d).").ok());
  ExpectAgreement(session, "leaf(X)");
  ExpectAgreement(session, "leaf(b)");
}

// Answers `goal` on a fresh TopDownEngine over the session's evaluated
// database (the engine reads only its EDB relations) and returns the stats.
TopDownStats RunTopDown(Session& session, const std::string& goal,
                        size_t* answers) {
  EXPECT_TRUE(session.Evaluate().ok());
  TopDownEngine engine(&session.factory(), &session.catalog(),
                       &session.program(), &session.stratification(),
                       &session.database());
  auto goal_ast = ParseLiteralText(goal, &session.interner());
  EXPECT_TRUE(goal_ast.ok()) << goal;
  auto lowered = LowerLiteral(session.factory(), session.catalog(), *goal_ast);
  EXPECT_TRUE(lowered.ok()) << goal;
  auto result = engine.Query(*lowered);
  EXPECT_TRUE(result.ok()) << goal << ": " << result.status();
  *answers = result.ok() ? result->size() : 0;
  return engine.stats();
}

TEST(TopDown, BoundEdbCallProbesInsteadOfScanning) {
  // q(a, Y) binds p's first column: each expansion verifies only the two
  // p(a, _) rows, not all five. The first pass tables two answers, so one
  // more (quiescent) pass runs: 2 passes x 2 candidates.
  Session session;
  ASSERT_TRUE(session
                  .Load("p(a, b). p(a, c). p(b, d). p(c, e). p(d, f).\n"
                        "q(X, Y) :- p(X, Y).")
                  .ok());
  ExpectAgreement(session, "q(a, Y)");
  size_t answers = 0;
  TopDownStats stats = RunTopDown(session, "q(a, Y)", &answers);
  EXPECT_EQ(answers, 2u);
  EXPECT_EQ(stats.restarts, 2u);
  EXPECT_EQ(stats.edb_rows_matched, 4u);
  // An EDB goal probes too: one candidate, p(b, d).
  stats = RunTopDown(session, "p(b, Y)", &answers);
  EXPECT_EQ(answers, 1u);
  EXPECT_EQ(stats.edb_rows_matched, 1u);
}

TEST(TopDown, NegatedEdbCallStopsAtFirstMatch) {
  // !e(a, Y) has three matching rows; the anti-join verifies only the first.
  Session session;
  ASSERT_TRUE(session
                  .Load("node(a). node(b).\n"
                        "e(a, 1). e(a, 2). e(a, 3).\n"
                        "leaf(X) :- node(X), !e(X, Y).")
                  .ok());
  ExpectAgreement(session, "leaf(a)");
  ExpectAgreement(session, "leaf(X)");
  size_t answers = 0;
  // The call binds X, so !e(a, Y) runs first and fails after one verified
  // row; node(a) is never reached. One pass: nothing is tabled.
  TopDownStats stats = RunTopDown(session, "leaf(a)", &answers);
  EXPECT_EQ(answers, 0u);
  EXPECT_EQ(stats.restarts, 1u);
  EXPECT_EQ(stats.edb_rows_matched, 1u);
  // leaf(X): per pass, both node rows, one e(a, _) row and no e(b, _) row;
  // leaf(b) is tabled in the first pass, so two passes.
  stats = RunTopDown(session, "leaf(X)", &answers);
  EXPECT_EQ(answers, 1u);
  EXPECT_EQ(stats.restarts, 2u);
  EXPECT_EQ(stats.edb_rows_matched, 6u);
}

TEST(TopDown, GroupingPerCall) {
  Session session;
  ASSERT_TRUE(session
                  .Load("e(1, a). e(1, b). e(2, c).\n"
                        "g(K, <V>) :- e(K, V).")
                  .ok());
  ExpectAgreement(session, "g(1, S)");
  ExpectAgreement(session, "g(K, S)");
  // Bound grouped argument: footnote 6 -- the binding must not restrict
  // the body; it filters the produced group.
  ExpectAgreement(session, "g(1, {a, b})");
  ExpectAgreement(session, "g(1, {a})");  // empty: the group is {a, b}
}

TEST(TopDown, YoungRunningExample) {
  SameGenerationWorkload workload = MakeSameGeneration(3, 2, 3);
  Session session;
  ASSERT_TRUE(session.Load(workload.facts).ok());
  ASSERT_TRUE(session
                  .Load("a(X, Y) :- p(X, Y).\n"
                        "a(X, Y) :- a(X, Z), a(Z, Y).\n"
                        "sg(X, Y) :- siblings(X, Y).\n"
                        "sg(X, Y) :- p(Z1, X), sg(Z1, Z2), p(Z2, Y).\n"
                        "young(X, <Y>) :- !a(X, Z), sg(X, Y).")
                  .ok());
  ExpectAgreement(session, StrCat("young(", workload.a_leaf, ", S)"));
  ExpectAgreement(session, StrCat("young(", workload.an_inner, ", S)"));
  ExpectAgreement(session, StrCat("sg(", workload.a_leaf, ", X)"));
}

TEST(TopDown, SetsAndBuiltins) {
  Session session;
  ASSERT_TRUE(session
                  .Load("s({1, 2}). s({3}).\n"
                        "u(U) :- s(A), s(B), union(A, B, U).\n"
                        "elem(X) :- s(S), member(X, S).")
                  .ok());
  ExpectAgreement(session, "u(U)");
  ExpectAgreement(session, "elem(X)");
  ExpectAgreement(session, "u({1, 2, 3})");
}

TEST(TopDown, BomCostQuery) {
  BomWorkload workload = MakeBom(14, 5);
  Session session;
  ASSERT_TRUE(session.Load(workload.facts).ok());
  ASSERT_TRUE(session
                  .Load("p(P, S) :- part_of(P, S).\n"
                        "q(X, C) :- cost(X, C).\n"
                        "part(P, <S>) :- p(P, S).\n"
                        "tc({X}, C) :- q(X, C).\n"
                        "tc({X}, C) :- part(X, S), tc(S, C).\n"
                        "tc(S, C) :- partition(S, S1, S2), tc(S1, C1), "
                        "tc(S2, C2), +(C1, C2, C).\n"
                        "result(X, C) :- tc({X}, C).")
                  .ok());
  // Compare against magic (full evaluation is exponential in parts).
  QueryOptions magic;
  magic.strategy = ldl::QueryStrategy::kMagic;
  QueryOptions topdown;
  topdown.strategy = ldl::QueryStrategy::kTopDown;
  std::string goal = StrCat("result(", workload.root, ", C)");
  auto a = session.Query(goal, magic);
  auto b = session.Query(goal, topdown);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(Render(session, a->tuples), Render(session, b->tuples));
}

TEST(TopDown, EdbGoalsPassThrough) {
  Session session;
  ASSERT_TRUE(session.Load("p(a, b). p(a, c).").ok());
  QueryOptions topdown;
  topdown.strategy = ldl::QueryStrategy::kTopDown;
  auto result = session.Query("p(a, X)", topdown);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->tuples.size(), 2u);
}

TEST(TopDown, RecursionDepthGuard) {
  Session session;
  ASSERT_TRUE(session.Load(ParentChain(64, "p")).ok());
  ASSERT_TRUE(session
                  .Load("a(X, Y) :- p(X, Y).\n"
                        "a(X, Y) :- p(X, Z), a(Z, Y).")
                  .ok());
  ASSERT_TRUE(session.Analyze().ok());
  // Engine-level options with a tiny depth cap.
  Database edb(&session.catalog());
  // Reuse Session's EDB by evaluating (cheap) and copying base facts.
  ASSERT_TRUE(session.Evaluate().ok());
  PredId p = session.catalog().Find("p", 2);
  session.database().relation(p).ForEachRow(
      0, session.database().relation(p).row_count(),
      [&](size_t, RowRef t) { edb.AddFact(p, t); });
  TopDownOptions options;
  options.max_call_depth = 4;
  TopDownEngine engine(&session.factory(), &session.catalog(), &session.program(),
                       &session.stratification(), &edb, options);
  auto goal_ast = ParseLiteralText("a(p0, X)", &session.interner());
  ASSERT_TRUE(goal_ast.ok());
  auto goal = LowerLiteral(session.factory(), session.catalog(), *goal_ast);
  ASSERT_TRUE(goal.ok());
  auto result = engine.Query(*goal);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace ldl
