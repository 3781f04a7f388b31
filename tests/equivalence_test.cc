// Equivalence of the evaluation strategies over the .ldl example corpus.
// The engine's model under naive and semi-naive fixpoints must equal a
// reference model computed by the substitution
// interpreter (naive, layer by layer, no plans or blocks), including the
// grouping and stratified-negation programs; stored-query answers under
// every query strategy (model, magic, supplementary magic, top-down) must
// equal the reference model's answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "ldl/ldl.h"
#include "reference_model.h"
#include "workload/workload.h"

namespace ldl {
namespace {

std::vector<std::string> CorpusPrograms() {
  std::vector<std::string> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(LDL1_CORPUS_DIR)) {
    if (entry.path().extension() == ".ldl") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

constexpr QueryStrategy kStrategies[] = {
    QueryStrategy::kModel, QueryStrategy::kMagic,
    QueryStrategy::kMagicSupplementary, QueryStrategy::kTopDown};

// Answers stored queries through the magic-set rewriting, so the saturating
// evaluator (grouping reconciliation and all) runs under `eval` too.
std::vector<std::string> StoredQueryAnswers(
    Session& session, const EvalOptions& eval,
    QueryStrategy strategy = QueryStrategy::kMagic) {
  std::vector<std::string> all;
  AstPrinter printer(&session.interner());
  QueryOptions query_options;
  query_options.strategy = strategy;
  query_options.eval = eval;
  for (const QueryAst& query : session.stored_queries()) {
    std::string goal = printer.ToString(query.goal);
    auto result = session.Query(goal, query_options);
    EXPECT_TRUE(result.ok()) << goal << ": " << result.status();
    if (!result.ok()) continue;
    for (const Tuple& tuple : result->tuples) {
      all.push_back(goal + " -> " + session.FormatTuple(tuple));
    }
  }
  std::sort(all.begin(), all.end());
  return all;
}

struct Config {
  const char* name;
  EvalOptions::Mode mode;
};

constexpr Config kConfigs[] = {
    {"naive", EvalOptions::Mode::kNaive},
    {"semi-naive", EvalOptions::Mode::kSemiNaive},
};

TEST(Equivalence, CorpusModelsMatchReferenceInterpreter) {
  std::vector<std::string> programs = CorpusPrograms();
  ASSERT_FALSE(programs.empty());
  for (const std::string& path : programs) {
    Session reference_session;
    ASSERT_TRUE(reference_session.LoadFile(path).ok()) << path;
    ASSERT_TRUE(reference_session.Evaluate().ok()) << path;
    Reference reference = ReferenceEvaluation(reference_session);
    EXPECT_FALSE(reference.model.empty()) << path;
    for (const Config& config : kConfigs) {
      Session session;
      ASSERT_TRUE(session.LoadFile(path).ok()) << path;
      EvalOptions options;
      options.mode = config.mode;
      Status status = session.Evaluate(options);
      ASSERT_TRUE(status.ok()) << path << " [" << config.name << "]: " << status;
      EXPECT_EQ(Materialize(session), reference.model)
          << path << " [" << config.name << "] diverges from the reference";
      for (QueryStrategy strategy : kStrategies) {
        EXPECT_EQ(StoredQueryAnswers(session, options, strategy),
                  reference.answers)
            << path << " [" << config.name << " " << ToString(strategy)
            << "] query answers diverge from the reference";
      }
    }
  }
}

// Cost-based join ordering must be invisible in the model: over the whole
// corpus, the cost-based orderer produces the same models and stored-query
// answers as the syntactic orderer, under every query strategy.
TEST(Equivalence, CostBasedMatchesSyntacticAcrossStrategies) {
  std::vector<std::string> programs = CorpusPrograms();
  ASSERT_FALSE(programs.empty());
  for (const std::string& path : programs) {
    Session reference;
    ASSERT_TRUE(reference.LoadFile(path).ok()) << path;
    EvalOptions syntactic;
    syntactic.cost_based = false;
    Status status = reference.Evaluate(syntactic);
    ASSERT_TRUE(status.ok()) << path << ": " << status;
    ModelText reference_model = Materialize(reference);
    std::map<QueryStrategy, std::vector<std::string>> reference_answers;
    for (QueryStrategy strategy : kStrategies) {
      reference_answers[strategy] =
          StoredQueryAnswers(reference, syntactic, strategy);
    }

    Session session;
    ASSERT_TRUE(session.LoadFile(path).ok()) << path;
    EvalOptions cost_based;
    cost_based.cost_based = true;
    status = session.Evaluate(cost_based);
    ASSERT_TRUE(status.ok()) << path << ": " << status;
    EXPECT_EQ(Materialize(session), reference_model)
        << path << " [cost-based] diverges from the syntactic order";
    for (QueryStrategy strategy : kStrategies) {
      EXPECT_EQ(StoredQueryAnswers(session, cost_based, strategy),
                reference_answers[strategy])
          << path << " [cost-based " << ToString(strategy)
          << "] query answers diverge";
    }
  }
}

// One line per profiled rule with its deterministic (non-timing) counters.
// Entries arrive in rule-index order, which is itself deterministic, so the
// rendered vectors compare directly.
std::vector<std::string> DeterministicProfileLines(const EvalProfile& profile) {
  std::vector<std::string> lines;
  for (const RuleProfileEntry& entry : profile.rules()) {
    std::string line = "#" + std::to_string(entry.rule_index) + "@" +
                       std::to_string(entry.stratum) + " " + entry.label;
    entry.counters.ForEachField(
        [&](const char* name, uint64_t value) {
          line += " " + std::string(name) + "=" + std::to_string(value);
        },
        /*include_timing=*/false);
    lines.push_back(std::move(line));
  }
  return lines;
}

// Every EvalStats counter, one line each.
std::vector<std::string> StatsLines(const EvalStats& stats) {
  std::vector<std::string> lines;
  stats.ForEachField([&](const char* name, size_t value) {
    lines.push_back(std::string(name) + "=" + std::to_string(value));
  });
  return lines;
}

// Per-fact derivation counts of every counted relation (the DRed deletion
// fast path's input -- a schedule-dependent count here would silently
// corrupt incremental deletes).
std::map<std::string, uint32_t> DerivationCounts(Session& session) {
  std::map<std::string, uint32_t> counts;
  for (PredId pred = 0; pred < session.catalog().size(); ++pred) {
    const Relation& relation = session.database().relation(pred);
    if (!relation.counted()) continue;
    std::string name = session.catalog().DebugName(pred);
    for (size_t row = 0; row < relation.row_count(); ++row) {
      if (!relation.IsLive(row)) continue;
      Tuple tuple(relation.row(row).begin(), relation.row(row).end());
      counts[name + "(" + session.FormatTuple(tuple) + ")"] =
          relation.derivation_count(row);
    }
  }
  return counts;
}

// The determinism contract (DESIGN.md §5, §12): rounds read round-start
// snapshot windows and blocks enumerate in row-id order, so every counter is
// a function of the program and the EDB. Two fresh sessions -- different
// term addresses, different plan caches -- must agree on the deterministic
// profile counters, every EvalStats counter and every derivation count, in
// both fixpoint modes.
TEST(Equivalence, ProfilesStatsAndCountsAreReproducible) {
  std::vector<std::string> programs = CorpusPrograms();
  ASSERT_FALSE(programs.empty());
  for (const std::string& path : programs) {
    for (auto mode : {EvalOptions::Mode::kNaive, EvalOptions::Mode::kSemiNaive}) {
      std::vector<std::string> reference_profile;
      std::vector<std::string> reference_stats;
      std::map<std::string, uint32_t> reference_counts;
      for (int run : {0, 1}) {
        Session session;
        ASSERT_TRUE(session.LoadFile(path).ok()) << path;
        EvalOptions options;
        options.mode = mode;
        options.profile = true;
        Status status = session.Evaluate(options);
        ASSERT_TRUE(status.ok()) << path << " run " << run << ": " << status;
        std::vector<std::string> profile =
            DeterministicProfileLines(session.last_eval_profile());
        std::vector<std::string> stats = StatsLines(session.last_eval_stats());
        std::map<std::string, uint32_t> counts = DerivationCounts(session);
        if (run == 0) {
          reference_profile = std::move(profile);
          reference_stats = std::move(stats);
          reference_counts = std::move(counts);
          continue;
        }
        std::string label =
            path + " mode " + std::to_string(static_cast<int>(mode));
        EXPECT_EQ(profile, reference_profile) << label << " profile diverges";
        EXPECT_EQ(stats, reference_stats) << label << " stats diverge";
        EXPECT_EQ(counts, reference_counts)
            << label << " derivation counts diverge";
      }
    }
  }
}

}  // namespace
}  // namespace ldl
