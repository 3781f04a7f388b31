// Equivalence of the evaluation strategies over the .ldl example corpus.
// The engine's model under naive and semi-naive fixpoints, serial and
// parallel, must equal a reference model computed by the substitution
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
  int threads = 1;
};

constexpr Config kConfigs[] = {
    {"naive", EvalOptions::Mode::kNaive},
    {"semi-naive", EvalOptions::Mode::kSemiNaive},
    // Threads axis: the parallel evaluator must reproduce the serial model
    // at every pool width (1 runs the serial code path by construction).
    {"semi-naive/t2", EvalOptions::Mode::kSemiNaive, 2},
    {"semi-naive/t4", EvalOptions::Mode::kSemiNaive, 4},
    {"semi-naive/t8", EvalOptions::Mode::kSemiNaive, 8},
    {"naive/t4", EvalOptions::Mode::kNaive, 4},
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
      options.num_threads = config.threads;
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
// answers as the syntactic orderer, under every query strategy and at both
// serial and parallel pool widths.
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

    for (int threads : {1, 4}) {
      Session session;
      ASSERT_TRUE(session.LoadFile(path).ok()) << path;
      EvalOptions cost_based;
      cost_based.cost_based = true;
      cost_based.num_threads = threads;
      status = session.Evaluate(cost_based);
      ASSERT_TRUE(status.ok()) << path << " t" << threads << ": " << status;
      EXPECT_EQ(Materialize(session), reference_model)
          << path << " [cost-based t" << threads
          << "] diverges from the syntactic order";
      for (QueryStrategy strategy : kStrategies) {
        EXPECT_EQ(StoredQueryAnswers(session, cost_based, strategy),
                  reference_answers[strategy])
            << path << " [cost-based t" << threads << " " << ToString(strategy)
            << "] query answers diverge";
      }
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

// Every EvalStats counter that does not depend on the worker schedule:
// parallel_tasks and delta_shards count pool work, plan_cache_hits differs
// because parallel rounds prefetch plans per variant, and rule_firings
// counts one firing per delta shard.
std::vector<std::string> StatsLines(const EvalStats& stats) {
  std::vector<std::string> lines;
  stats.ForEachField([&](const char* name, size_t value) {
    const std::string field = name;
    if (field == "parallel_tasks" || field == "delta_shards" ||
        field == "plan_cache_hits" || field == "rule_firings") {
      return;
    }
    lines.push_back(field + "=" + std::to_string(value));
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

// The determinism contract (DESIGN.md §5, §12): the pool width must be
// invisible -- identical deterministic profile counters, schedule-free
// EvalStats, and per-fact derivation counts at 1 and 4 threads, in both
// fixpoint modes.
TEST(Equivalence, SerialMatchesParallelProfilesStatsAndCounts) {
  std::vector<std::string> programs = CorpusPrograms();
  ASSERT_FALSE(programs.empty());
  for (const std::string& path : programs) {
    for (auto mode : {EvalOptions::Mode::kNaive, EvalOptions::Mode::kSemiNaive}) {
      std::vector<std::string> reference_profile;
      std::vector<std::string> reference_stats;
      std::map<std::string, uint32_t> reference_counts;
      for (int threads : {1, 4}) {
        Session session;
        ASSERT_TRUE(session.LoadFile(path).ok()) << path;
        EvalOptions options;
        options.mode = mode;
        options.num_threads = threads;
        options.profile = true;
        Status status = session.Evaluate(options);
        ASSERT_TRUE(status.ok()) << path << " t" << threads << ": " << status;
        std::vector<std::string> profile =
            DeterministicProfileLines(session.last_eval_profile());
        std::vector<std::string> stats = StatsLines(session.last_eval_stats());
        std::map<std::string, uint32_t> counts = DerivationCounts(session);
        if (threads == 1) {
          reference_profile = std::move(profile);
          reference_stats = std::move(stats);
          reference_counts = std::move(counts);
          continue;
        }
        std::string label = path + " mode " +
                            std::to_string(static_cast<int>(mode)) + " t4";
        EXPECT_EQ(profile, reference_profile) << label << " profile diverges";
        EXPECT_EQ(stats, reference_stats) << label << " stats diverge";
        EXPECT_EQ(counts, reference_counts)
            << label << " derivation counts diverge";
      }
    }
  }
}

// Stress the delta-window sharding path: transitive closure of a random
// graph with a few hub nodes produces large, skewed per-round deltas, so
// windows get split into row-range shards (>= 64 rows each). The parallel
// model and query answers must match the serial reference at every width.
TEST(Equivalence, ParallelShardedDeltasMatchSerial) {
  std::string edges = RandomGraph(/*nodes=*/60, /*edges=*/240, /*seed=*/7);
  // Hubs: node h0 reaches everything, skewing the delta toward h0 rows.
  for (int i = 0; i < 60; i += 2) {
    edges += "edge(h0, n" + std::to_string(i) + ").\n";
  }
  std::string program = edges +
                        "tc(X, Y) :- edge(X, Y).\n"
                        "tc(X, Y) :- tc(X, Z), edge(Z, Y).\n";

  ModelText reference;
  EvalStats reference_stats;
  for (int threads : {1, 2, 4, 8}) {
    Session session;
    ASSERT_TRUE(session.Load(program).ok());
    EvalOptions options;
    options.num_threads = threads;
    ASSERT_TRUE(session.Evaluate(options).ok());
    ModelText model = Materialize(session);
    if (threads == 1) {
      reference = std::move(model);
      reference_stats = session.last_eval_stats();
      continue;
    }
    EXPECT_EQ(model, reference) << "threads=" << threads;
    // Facts derived is a property of the model, not the schedule.
    EXPECT_EQ(session.last_eval_stats().facts_derived,
              reference_stats.facts_derived)
        << "threads=" << threads;
    // The deltas here are big enough that sharding must actually trigger.
    EXPECT_GT(session.last_eval_stats().delta_shards, 0u)
        << "threads=" << threads;
    EXPECT_GT(session.last_eval_stats().parallel_tasks, 0u)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace ldl
