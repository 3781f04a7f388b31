// Reference model for tests: the substitution interpreter (eval/rule_eval.h)
// evaluated naively, layer by layer, with no plans or blocks. Tests compare
// the engine's model and stored-query answers against it.
#ifndef LDL1_TESTS_REFERENCE_MODEL_H_
#define LDL1_TESTS_REFERENCE_MODEL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "eval/grouping.h"
#include "eval/rule_eval.h"
#include "ldl/ldl.h"

namespace ldl {

// The full model as text: predicate name -> sorted formatted tuples.
// Formatting makes snapshots comparable across sessions (interned term
// pointers differ between factories).
using ModelText = std::map<std::string, std::vector<std::string>>;

inline ModelText Materialize(const Session& session, const Database& db) {
  ModelText model;
  for (PredId pred = 0; pred < session.catalog().size(); ++pred) {
    std::vector<std::string> rows;
    for (const Tuple& tuple : db.relation(pred).Snapshot()) {
      rows.push_back(session.FormatTuple(tuple));
    }
    std::sort(rows.begin(), rows.end());
    model[session.catalog().DebugName(pred)] = std::move(rows);
  }
  return model;
}

inline ModelText Materialize(Session& session) {
  return Materialize(session, session.database());
}

// The reference model and stored-query answers of a loaded, evaluated
// session: the EDB relations seed a fresh database, then each layer of
// session.stratification() is evaluated naively through the reference
// interpreter -- grouping rules once over the layer's input (Lemma 3.2.3),
// the other rules re-applied over the whole database until nothing new
// appears (Theorem 1). No engine code runs.
struct Reference {
  ModelText model;
  std::vector<std::string> answers;
};

inline Status EvaluateLayer(Session& session, const std::vector<int>& layer,
                     Database* db) {
  TermFactory& factory = session.factory();
  const ProgramIr& program = session.program();
  EvalStats stats;
  for (int r : layer) {
    const RuleIr& rule = program.rules[r];
    if (!rule.is_grouping()) continue;
    LDL_ASSIGN_OR_RETURN(std::vector<int> order,
                         OrderBodyLiterals(session.catalog(), rule));
    RuleEvaluator evaluator(&factory, &rule, std::move(order));
    LDL_ASSIGN_OR_RETURN(std::vector<GroupResult> groups,
                         ComputeGroups(factory, evaluator, *db, &stats));
    for (const GroupResult& group : groups) db->AddFact(rule.head_pred, group.fact);
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (int r : layer) {
      const RuleIr& rule = program.rules[r];
      if (rule.is_grouping()) continue;
      LDL_ASSIGN_OR_RETURN(std::vector<int> order,
                           OrderBodyLiterals(session.catalog(), rule));
      RuleEvaluator evaluator(&factory, &rule, std::move(order));
      // Buffered: inserting mid-enumeration would move the rows being read.
      std::vector<Tuple> heads;
      LDL_RETURN_IF_ERROR(evaluator.ForEachSolution(
          *db, {},
          [&](const Subst& solution) {
            InstantiationResult inst = evaluator.InstantiateHead(solution);
            EXPECT_FALSE(inst.unbound);
            if (!inst.unbound && !inst.outside_universe) {
              heads.push_back(std::move(inst.tuple));
            }
            return true;
          },
          &stats));
      for (const Tuple& head : heads) {
        if (db->AddFact(rule.head_pred, head)) changed = true;
      }
    }
  }
  return Status::OK();
}

inline Reference ReferenceEvaluation(Session& session) {
  Reference reference;
  Database db(&session.catalog());
  db.CopyFrom(session.database(), session.edb_preds());
  for (const std::vector<int>& layer : session.stratification().strata) {
    Status status = EvaluateLayer(session, layer, &db);
    EXPECT_TRUE(status.ok()) << status;
  }
  reference.model = Materialize(session, db);
  AstPrinter printer(&session.interner());
  for (const QueryAst& query : session.stored_queries()) {
    std::string goal = printer.ToString(query.goal);
    auto prepared = session.Prepare(goal);
    EXPECT_TRUE(prepared.ok()) << goal << ": " << prepared.status();
    if (!prepared.ok()) continue;
    auto tuples = QueryRelation(&session.factory(), prepared->goal(),
                                db.relation(prepared->goal().pred));
    EXPECT_TRUE(tuples.ok()) << goal << ": " << tuples.status();
    if (!tuples.ok()) continue;
    for (const Tuple& tuple : *tuples) {
      reference.answers.push_back(goal + " -> " + session.FormatTuple(tuple));
    }
  }
  std::sort(reference.answers.begin(), reference.answers.end());
  return reference;
}

}  // namespace ldl

#endif  // LDL1_TESTS_REFERENCE_MODEL_H_
