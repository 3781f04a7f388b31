// End-to-end benchmark for the LDL1 engine.
//
// One fixed LDL1 program -- recursion, the §6 young/sg example (negation
// plus grouping) and §2.2 grouping with a set builtin -- runs over EDB facts
// generated from --seed, driven through the public ldl::Session /
// ldl::Service API in one of three traffic shapes:
//
//   materialize   one caller runs batch jobs, each on a fresh Session:
//                 Load -> Analyze -> Evaluate -> a few kModel goals.
//   goal-magic    a Service loaded once; 2 clients send prepared goals
//                 under QueryStrategy::kMagic (§6 goal-directed path).
//   update-churn  a Service loaded once; 1 writer applies seeded
//                 AddFacts/RemoveFacts batches beside 1 kModel reader.
//
// Every loop is closed (a caller waits for its reply before the next
// request). Every answer is checked against an oracle that does not trust
// the engine under test; failures count into `failed`. The library runs
// with default EvalOptions; only `profile` is switched on, and only in the
// traced run (--trace 1), which additionally records one span around each
// public call and reports the per-layer split.
//
// Usage:
//   ldl_perfbench --workload <materialize|goal-magic|update-churn>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out <file>] [--tiny]
//   ldl_perfbench --selftest
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/hash.h"
#include "base/str_util.h"
#include "ldl/ldl.h"
#include "ldl/service.h"
#include "rewrite/magic.h"
#include "semantics/model.h"
#include "workload/workload.h"

namespace {

using ldl::EvalOptions;
using ldl::EvalProfile;
using ldl::EvalStats;
using ldl::PreparedQuery;
using ldl::QueryOptions;
using ldl::QueryResult;
using ldl::QueryStrategy;
using ldl::Rng;
using ldl::Service;
using ldl::Session;
using ldl::Status;
using ldl::StrAppend;
using ldl::StrCat;
using ldl::TermFactory;
using ldl::Tuple;

#ifndef LDL_PERFBENCH_BUILD_TYPE
#define LDL_PERFBENCH_BUILD_TYPE ""
#endif

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }
double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// Moves each load thread round-robin over the CPUs the process may run
// on, one slice at a time: lane k runs on CPU (slice + k) mod n, so
// concurrent lanes never share a CPU. On a shared VM each vCPU swings
// between a fast and a ~1.7x slower regime for seconds at a time,
// independently of the others, and a thread left where the scheduler put
// it measured its vCPU's regimes: the median of a sub-microsecond lookup
// moved between the two modes from run to run. Rotating, every run spends
// the same share of its time on each vCPU, so its figures follow the
// average over the vCPUs, which drifts less. A thread is moved only
// between two operations, never inside one.
class CpuRotation {
 public:
  static constexpr int64_t kSliceNs = 100'000'000;

  explicit CpuRotation(int64_t start) : start_(start) {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }

  // One load thread's place in the rotation.
  class Lane {
   public:
    Lane(const CpuRotation& rotation, size_t lane)
        : rotation_(rotation), lane_(lane) {}
    ~Lane() { rotation_.Pin(rotation_.cpus_); }
    Lane(const Lane&) = delete;
    Lane& operator=(const Lane&) = delete;

    // Pins the calling thread to this lane's CPU for the slice holding
    // `now`; a comparison only, until the slice changes.
    void Tick(int64_t now) {
      if (now < next_ || rotation_.cpus_.size() < 2) return;
      const int64_t slice = (now - rotation_.start_) / kSliceNs;
      next_ = rotation_.start_ + (slice + 1) * kSliceNs;
      const std::vector<int>& cpus = rotation_.cpus_;
      rotation_.Pin({cpus[(static_cast<size_t>(slice) + lane_) % cpus.size()]});
    }

   private:
    const CpuRotation& rotation_;
    size_t lane_;
    int64_t next_ = 0;
  };

 private:
  // Lets the calling thread run on `cpus` only; no-op if the process may
  // use fewer than two CPUs.
  void Pin(const std::vector<int>& cpus) const {
    if (cpus_.size() < 2) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus) CPU_SET(c, &set);
    sched_setaffinity(0, sizeof(set), &set);
  }

  int64_t start_;
  std::vector<int> cpus_;
};

// The benchmark's program. The text is fixed; the seed changes only facts.
constexpr const char* kRules =
    "reach(X, Y) :- edge(X, Y).\n"
    "reach(X, Y) :- reach(X, Z), edge(Z, Y).\n"
    "a(X, Y) :- p(X, Y).\n"
    "a(X, Y) :- a(X, Z), a(Z, Y).\n"
    "sg(X, Y) :- siblings(X, Y).\n"
    "sg(X, Y) :- p(Z1, X), sg(Z1, Z2), p(Z2, Y).\n"
    "young(X, <Y>) :- !a(X, Z), sg(X, Y).\n"
    "sp(S, <P>) :- supplies(S, P).\n"
    "big(S) :- sp(S, Ps), card(Ps, N), N >= 8.\n";

// Every predicate of the program with its arity, EDB first.
constexpr std::pair<const char*, int> kPreds[] = {
    {"edge", 2}, {"p", 2},  {"siblings", 2}, {"supplies", 2}, {"reach", 2},
    {"a", 2},    {"sg", 2}, {"young", 2},    {"sp", 2},       {"big", 1}};

// ---------------------------------------------------------------- inputs

// Generator sizes. The full sizes give a model of ~50k facts in which the
// recursive reach stratum and the young/sp grouping stratum each take a
// visible share of materialisation (~40% and ~60% on a 4-core x86 VM).
// With out-degree 5 nearly every node of the random graph lies on one
// strongly connected component, so reach/2 -- and with it the work per
// job -- barely moves with the seed.
struct Sizes {
  size_t nodes;      // RandomGraph nodes
  size_t edges;      // RandomGraph edges
  size_t roots;      // MakeSameGeneration sibling roots
  size_t branching;  // MakeSameGeneration branching
  size_t depth;      // MakeSameGeneration depth
  size_t suppliers;  // SupplierParts suppliers
  size_t parts_per;  // SupplierParts parts per supplier
  size_t part_pool;  // SupplierParts part pool
};
constexpr Sizes kFullSizes{190, 950, 3, 2, 4, 300, 8, 40};
constexpr Sizes kTinySizes{24, 72, 2, 2, 2, 12, 8, 40};

struct Inputs {
  Sizes sizes{};
  std::string program;  // EDB facts followed by kRules
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  std::vector<std::vector<uint32_t>> supplies;  // part ids per supplier
  size_t edb_facts = 0;
  size_t first_leaf = 0;  // leaves are x<first_leaf> .. x<person_count-1>
  size_t leaf_count = 0;
};

// Parses the numeric suffix of a generated constant ("n12" -> 12).
bool ParseId(std::string_view text, std::string_view prefix, uint32_t* id) {
  if (text.size() <= prefix.size() || text.substr(0, prefix.size()) != prefix)
    return false;
  const char* begin = text.data() + prefix.size();
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, *id);
  return ec == std::errc() && ptr == end;
}

size_t CountLines(const std::string& text) {
  return static_cast<size_t>(std::count(text.begin(), text.end(), '\n'));
}

Inputs MakeInputs(const Sizes& sizes, uint64_t seed) {
  Inputs in;
  in.sizes = sizes;
  std::string graph = ldl::RandomGraph(sizes.nodes, sizes.edges, seed);
  ldl::SameGenerationWorkload family =
      ldl::MakeSameGeneration(sizes.roots, sizes.branching, sizes.depth);
  std::string supplies =
      ldl::SupplierParts(sizes.suppliers, sizes.parts_per, sizes.part_pool,
                         seed * 0x9e3779b97f4a7c15ULL + 1);

  // Read the generated facts back for the oracles.
  unsigned from = 0, to = 0;
  for (size_t pos = 0; pos < graph.size();) {
    size_t eol = graph.find('\n', pos);
    if (std::sscanf(graph.c_str() + pos, "edge(n%u, n%u).", &from, &to) == 2)
      in.edges.emplace_back(from, to);
    pos = eol == std::string::npos ? graph.size() : eol + 1;
  }
  in.supplies.resize(sizes.suppliers);
  for (size_t pos = 0; pos < supplies.size();) {
    size_t eol = supplies.find('\n', pos);
    if (std::sscanf(supplies.c_str() + pos, "supplies(s%u, part%u).", &from,
                    &to) == 2 &&
        from < sizes.suppliers)
      in.supplies[from].push_back(to);
    pos = eol == std::string::npos ? supplies.size() : eol + 1;
  }
  in.leaf_count = sizes.roots;
  for (size_t d = 0; d < sizes.depth; ++d) in.leaf_count *= sizes.branching;
  in.first_leaf = family.person_count - in.leaf_count;
  in.edb_facts =
      CountLines(graph) + CountLines(family.facts) + CountLines(supplies);
  in.program = graph + family.facts + supplies + kRules;
  return in;
}

// ---------------------------------------------------------------- oracles

// Expected answers computed from the generated facts alone, never from the
// engine under test.
struct Oracle {
  std::vector<std::vector<uint32_t>> reach;  // sorted, reachable in >= 1 step
  size_t reach_total = 0;
  std::vector<size_t> parts;  // distinct parts per supplier
  size_t big = 0;             // suppliers with >= 8 distinct parts
  size_t young = 0;           // young facts: one per leaf
  size_t young_set = 0;       // |S| of young(leaf, S): leaves of other roots
};

Oracle MakeOracle(const Inputs& in) {
  Oracle oracle;
  const size_t n = in.sizes.nodes;
  std::vector<std::vector<uint32_t>> out(n);
  for (auto [from, to] : in.edges) out[from].push_back(to);
  oracle.reach.resize(n);
  std::vector<char> seen(n);
  std::vector<uint32_t> stack;
  for (uint32_t s = 0; s < n; ++s) {
    std::fill(seen.begin(), seen.end(), 0);
    stack.assign(out[s].begin(), out[s].end());
    while (!stack.empty()) {
      uint32_t v = stack.back();
      stack.pop_back();
      if (seen[v]) continue;
      seen[v] = 1;
      oracle.reach[s].push_back(v);
      for (uint32_t w : out[v]) stack.push_back(w);
    }
    std::sort(oracle.reach[s].begin(), oracle.reach[s].end());
    oracle.reach_total += oracle.reach[s].size();
  }
  for (const auto& parts : in.supplies) {
    std::vector<uint32_t> distinct = parts;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    oracle.parts.push_back(distinct.size());
    if (distinct.size() >= 8) ++oracle.big;
  }
  oracle.young = in.leaf_count;
  oracle.young_set = in.leaf_count - in.leaf_count / in.sizes.roots;
  return oracle;
}

enum class GoalKind : uint8_t { kReach, kYoung, kSp, kBig };

struct Goal {
  GoalKind kind = GoalKind::kBig;
  uint32_t arg = 0;  // node, leaf or supplier number
  std::string text;
};

// A goal of `kind` with a seeded bound argument.
Goal DrawGoal(const Inputs& in, GoalKind kind, Rng* rng) {
  switch (kind) {
    case GoalKind::kReach: {
      uint32_t node = static_cast<uint32_t>(rng->Below(in.sizes.nodes));
      return {kind, node, StrCat("reach(n", node, ", Y)")};
    }
    case GoalKind::kYoung: {
      uint32_t leaf =
          static_cast<uint32_t>(in.first_leaf + rng->Below(in.leaf_count));
      return {kind, leaf, StrCat("young(x", leaf, ", S)")};
    }
    case GoalKind::kSp: {
      uint32_t supplier = static_cast<uint32_t>(rng->Below(in.sizes.suppliers));
      return {kind, supplier, StrCat("sp(s", supplier, ", P)")};
    }
    case GoalKind::kBig:
      break;
  }
  return {GoalKind::kBig, 0, "big(S)"};
}

// A goal list with `counts[k]` seeded goals of GoalKind k, in kind order.
// The counts fix each kind's share of the queries, so a latency percentile
// falls inside one kind's mode, not on the boundary between two.
std::vector<Goal> DrawGoals(const Inputs& in, Rng* rng,
                            const std::array<size_t, 4>& counts) {
  std::vector<Goal> goals;
  for (size_t k = 0; k < counts.size(); ++k) {
    for (size_t i = 0; i < counts[k]; ++i)
      goals.push_back(DrawGoal(in, static_cast<GoalKind>(k), rng));
  }
  return goals;
}

// Checks one goal's answer tuples against the oracle.
bool CheckGoal(const TermFactory& factory, const Oracle& oracle,
               const Goal& goal, const std::vector<Tuple>& tuples) {
  switch (goal.kind) {
    case GoalKind::kReach: {
      std::vector<uint32_t> ys;
      for (const Tuple& t : tuples) {
        uint32_t y = 0;
        if (t.size() != 2 || !ParseId(factory.ToString(t[1]), "n", &y))
          return false;
        ys.push_back(y);
      }
      std::sort(ys.begin(), ys.end());
      return ys == oracle.reach[goal.arg];
    }
    case GoalKind::kYoung:
      return tuples.size() == 1 && tuples[0].size() == 2 &&
             tuples[0][1]->is_set() &&
             tuples[0][1]->size() == oracle.young_set;
    case GoalKind::kSp:
      return tuples.size() == 1 && tuples[0].size() == 2 &&
             tuples[0][1]->is_set() &&
             tuples[0][1]->size() == oracle.parts[goal.arg];
    case GoalKind::kBig:
      return tuples.size() == oracle.big;
  }
  return false;
}

// reach/2 as a whole equals the BFS closure of the generated edges.
bool CheckReachRelation(const TermFactory& factory, const Oracle& oracle,
                        const std::vector<Tuple>& rows) {
  if (rows.size() != oracle.reach_total) return false;
  for (const Tuple& t : rows) {
    uint32_t x = 0, y = 0;
    if (t.size() != 2 || !ParseId(factory.ToString(t[0]), "n", &x) ||
        !ParseId(factory.ToString(t[1]), "n", &y) ||
        x >= oracle.reach.size() ||
        !std::binary_search(oracle.reach[x].begin(), oracle.reach[x].end(), y))
      return false;
  }
  return true;
}

// sp/2 holds one partition per supplier whose set has that supplier's
// distinct part count.
bool CheckSpPartitions(const TermFactory& factory, const Oracle& oracle,
                       const std::vector<Tuple>& rows) {
  if (rows.size() != oracle.parts.size()) return false;
  std::vector<char> seen(oracle.parts.size());
  for (const Tuple& t : rows) {
    uint32_t s = 0;
    if (t.size() != 2 || !ParseId(factory.ToString(t[0]), "s", &s) ||
        s >= oracle.parts.size() || seen[s] || !t[1]->is_set() ||
        t[1]->size() != oracle.parts[s])
      return false;
    seen[s] = 1;
  }
  return true;
}

void SortTuples(std::vector<Tuple>* tuples) {
  std::sort(tuples->begin(), tuples->end());
}

// Answers from one factory rendered as sorted text, comparable across
// sessions (set elements are ordered by term text, not by address).
std::vector<std::string> Render(const TermFactory& factory,
                                const std::vector<Tuple>& tuples) {
  std::vector<std::string> out;
  out.reserve(tuples.size());
  for (const Tuple& t : tuples) {
    std::string line;
    for (const ldl::Term* term : t) {
      if (!line.empty()) line += ", ";
      factory.AppendTo(term, &line);
    }
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Every fact of every program predicate, rendered "pred(args)" and sorted.
std::vector<std::string> RenderModel(const TermFactory& factory,
                                     const ldl::Database& db,
                                     const std::vector<ldl::PredId>& preds) {
  std::vector<std::string> out;
  for (size_t i = 0; i < preds.size(); ++i) {
    const ldl::Relation* relation = db.FindRelation(preds[i]);
    if (relation == nullptr) continue;
    for (std::string& row : Render(factory, relation->Snapshot()))
      out.push_back(StrCat(kPreds[i].first, "(", row, ")"));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ldl::PredId> SessionPreds(const Session& session) {
  std::vector<ldl::PredId> preds;
  for (auto [name, arity] : kPreds)
    preds.push_back(session.catalog().Find(name, arity));
  return preds;
}

// A Service has no catalog accessor: its predicates' ids come from
// preparing one all-free goal per predicate.
std::vector<ldl::PredId> ServicePreds(Service& service) {
  std::vector<ldl::PredId> preds;
  for (auto [name, arity] : kPreds) {
    ldl::StatusOr<PreparedQuery> all = service.Prepare(
        arity == 1 ? StrCat(name, "(X)") : StrCat(name, "(X, Y)"));
    preds.push_back(all.ok() ? all->goal().pred : ldl::kInvalidPred);
  }
  return preds;
}

std::vector<Tuple> RelationRows(const Session& session, const char* name,
                                int arity) {
  ldl::PredId pred = session.catalog().Find(name, arity);
  const ldl::Relation* relation = session.database().FindRelation(pred);
  return relation == nullptr ? std::vector<Tuple>{} : relation->Snapshot();
}

// ---------------------------------------------------------------- spans

// One finished span. Names are static strings.
struct SpanRecord {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  uint64_t id;
  uint64_t parent;  // 0: root
  uint64_t request;
  uint32_t thread;
};

struct SpanTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;  // duration minus the time child spans cover
};

// Collects spans from all threads. Spans stay in memory (each thread keeps
// its first kMaxStoredSpans for the trace file; totals cover every span)
// and are written out when the run ends.
class Tracer {
 public:
  static constexpr size_t kMaxStoredSpans = 10000;

  uint64_t NewId() { return next_id_.fetch_add(1) + 1; }
  uint64_t NewRequest() { return next_request_.fetch_add(1) + 1; }

  void Merge(std::vector<SpanRecord>* spans,
             const std::map<std::string, SpanTotals>& totals,
             uint64_t dropped) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.insert(spans_.end(), spans->begin(), spans->end());
    for (const auto& [name, t] : totals) {
      SpanTotals& mine = totals_[name];
      mine.count += t.count;
      mine.total_ns += t.total_ns;
      mine.self_ns += t.self_ns;
    }
    dropped_ += dropped;
  }

  std::map<std::string, SpanTotals> totals() const {
    std::lock_guard<std::mutex> lock(mu_);
    return totals_;
  }

  bool Write(const std::string& path, const std::string& info_json) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    if (!out) return false;
    // Span times are microseconds since the earliest recorded span.
    int64_t epoch = 0;
    for (const SpanRecord& s : spans_) {
      if (epoch == 0 || s.start_ns < epoch) epoch = s.start_ns;
    }
    out.setf(std::ios::fixed);
    out.precision(3);
    out << "{\"info\": " << info_json << ",\n\"dropped_spans\": " << dropped_
        << ",\n\"totals\": {";
    bool first = true;
    for (const auto& [name, t] : totals_) {
      out << (first ? "\n" : ",\n") << "  \"" << name << "\": {\"count\": "
          << t.count << ", \"total_us\": " << NsToUs(t.total_ns)
          << ", \"self_us\": " << NsToUs(t.self_ns) << "}";
      first = false;
    }
    out << "},\n\"spans\": [";
    first = true;
    for (const SpanRecord& s : spans_) {
      out << (first ? "\n" : ",\n") << "  {\"name\": \"" << s.name
          << "\", \"start_us\": " << NsToUs(s.start_ns - epoch)
          << ", \"end_us\": " << NsToUs(s.end_ns - epoch) << ", \"id\": " << s.id
          << ", \"parent\": " << s.parent << ", \"request\": " << s.request
          << ", \"thread\": " << s.thread << "}";
      first = false;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> next_request_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::map<std::string, SpanTotals> totals_;
  uint64_t dropped_ = 0;
};

// One thread's span recorder: a stack of open spans, finished spans kept
// locally and merged into the Tracer when the recorder is destroyed. A null
// recorder pointer means tracing is off; every helper below accepts it.
class SpanRecorder {
 public:
  SpanRecorder(Tracer* tracer, uint32_t thread)
      : tracer_(tracer), thread_(thread) {}
  ~SpanRecorder() { tracer_->Merge(&done_, totals_, dropped_); }

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  Tracer* tracer() const { return tracer_; }

  void Open(const char* name, uint64_t request) {
    uint64_t parent = open_.empty() ? 0 : open_.back().id;
    open_.push_back({name, NowNs(), 0, tracer_->NewId(), parent, request, 0});
  }

  // Fixes the open span's end time now (work done after this, such as
  // attaching profile children, is not counted in it).
  void MarkEnd() { open_.back().end_ns = NowNs(); }

  void Close() {
    OpenSpan span = open_.back();
    open_.pop_back();
    if (span.end_ns == 0) span.end_ns = NowNs();
    Finish(span.name, span.start_ns, span.end_ns, span.id, span.parent,
           span.request, span.child_ns);
  }

  // Adds the EvalProfile of an evaluation that ran inside the innermost
  // open span as its children: strata laid out back to back from the
  // span's start, each stratum's rules inside it. The library measures
  // these intervals; only their lengths are real.
  void AttachProfile(const EvalProfile& profile) {
    OpenSpan& top = open_.back();
    int64_t at = top.start_ns;
    std::map<int, int64_t> rules_ns;
    for (const auto& rule : profile.rules())
      rules_ns[rule.stratum] += static_cast<int64_t>(rule.counters.wall_ns);
    for (const auto& stratum : profile.strata()) {
      int64_t dur = static_cast<int64_t>(stratum.wall_ns);
      int64_t inner = std::min(dur, rules_ns[stratum.stratum]);
      uint64_t id = tracer_->NewId();
      Finish("eval.stratum", at, at + dur, id, top.id, top.request, inner);
      int64_t rule_at = at;
      for (const auto& rule : profile.rules()) {
        if (rule.stratum != stratum.stratum) continue;
        int64_t rule_dur = static_cast<int64_t>(rule.counters.wall_ns);
        Finish("eval.rule", rule_at, rule_at + rule_dur, tracer_->NewId(), id,
               top.request, 0);
        rule_at += rule_dur;
      }
      at += dur;
      top.child_ns += dur;
    }
  }

 private:
  struct OpenSpan {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    uint64_t id;
    uint64_t parent;
    uint64_t request;
    int64_t child_ns;
  };

  void Finish(const char* name, int64_t start, int64_t end, uint64_t id,
              uint64_t parent, uint64_t request, int64_t child_ns) {
    int64_t dur = end - start;
    SpanTotals& t = totals_[name];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += std::max<int64_t>(0, dur - child_ns);
    if (!open_.empty() && open_.back().id == parent) open_.back().child_ns += dur;
    if (done_.size() < Tracer::kMaxStoredSpans) {
      done_.push_back({name, start, end, id, parent, request, thread_});
    } else {
      ++dropped_;
    }
  }

  Tracer* tracer_;
  uint32_t thread_;
  std::vector<OpenSpan> open_;
  std::vector<SpanRecord> done_;
  std::map<std::string, SpanTotals> totals_;
  uint64_t dropped_ = 0;
};

// RAII span; a no-op when `rec` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, uint64_t request)
      : rec_(rec) {
    if (rec_ != nullptr) rec_->Open(name, request);
  }
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->Close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Ends the span's interval now and attaches the profile's strata and
  // rules as its children.
  void EndWithProfile(const EvalProfile& profile) {
    if (rec_ == nullptr) return;
    rec_->MarkEnd();
    rec_->AttachProfile(profile);
  }

 private:
  SpanRecorder* rec_;
};

uint64_t NewRequest(SpanRecorder* rec) {
  return rec == nullptr ? 0 : rec->tracer()->NewRequest();
}

// ---------------------------------------------------------------- samples

// Latency samples: a bounded reservoir (so a fast loop cannot grow memory
// and move rss_peak_mb) plus the exact count.
class Samples {
 public:
  static constexpr size_t kCap = 200000;

  explicit Samples(uint64_t seed = 1) : rng_(seed) {}

  void Add(double v) {
    ++count_;
    if (values_.size() < kCap) {
      values_.push_back(v);
    } else {
      uint64_t j = rng_.Below(count_);
      if (j < kCap) values_[j] = v;
    }
  }
  void Merge(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    count_ += other.count_;
  }
  uint64_t count() const { return count_; }

  // Mean of the kept samples (the reservoir is a uniform sample); 0 when
  // empty.
  double Mean() const {
    if (values_.empty()) return 0;
    double sum = 0;
    for (double v : values_) sum += v;
    return sum / static_cast<double>(values_.size());
  }


  // Nearest-rank percentile, q in (0, 1]; 0 when empty.
  double Percentile(double q) const {
    if (values_.empty()) return 0;
    std::vector<double> sorted = values_;
    size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
    rank = std::clamp<size_t>(rank, 1, sorted.size()) - 1;
    std::nth_element(sorted.begin(), sorted.begin() + rank, sorted.end());
    return sorted[rank];
  }

 private:
  Rng rng_;
  std::vector<double> values_;
  uint64_t count_ = 0;
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------- per-layer counters

// Rule key for per-rule metrics: the source predicate of the rule's head
// ("reach", "young", ...), "_rec" when the body calls the head predicate,
// and "magic" for the magic-set rules of a rewritten program.
std::string RuleKey(const std::string& label) {
  std::string head = label.substr(0, label.find('('));
  if (head.rfind("m_", 0) == 0) return "magic";
  std::string base = head.substr(0, head.find("__"));
  size_t body = label.find(":-");
  if (body == std::string::npos) return base;
  for (size_t at = label.find(head + "(", body); at != std::string::npos;
       at = label.find(head + "(", at + 1)) {
    char before = label[at - 1];
    if (!std::isalnum(static_cast<unsigned char>(before)) && before != '_')
      return base + "_rec";
  }
  return base;
}

constexpr const char* kRuleKeys[] = {"reach", "reach_rec", "a",  "a_rec",
                                     "sg",    "sg_rec",    "young", "sp",
                                     "big",   "magic"};
constexpr int kStrata = 2;

// Sums the work of one kind of evaluation over a phase (per-op means are
// reported).
struct EvalAcc {
  size_t ops = 0;
  EvalStats stats;
  double evaluate_ms = 0;
  double stratum_ms[kStrata] = {};
  std::map<std::string, double> rule_ms;
  double q_error_max = 0;

  void Add(const EvalStats& s, const EvalProfile& profile, double eval_ms) {
    ++ops;
    stats.Add(s);
    evaluate_ms += eval_ms;
    for (const auto& stratum : profile.strata()) {
      if (stratum.stratum >= 0 && stratum.stratum < kStrata)
        stratum_ms[stratum.stratum] += static_cast<double>(stratum.wall_ns) / 1e6;
    }
    for (const auto& rule : profile.rules()) {
      rule_ms[RuleKey(rule.label)] +=
          static_cast<double>(rule.counters.wall_ns) / 1e6;
      if (rule.counters.firings == 0 || rule.counters.est_rows == 0) continue;
      double est = std::max<double>(1, rule.counters.est_rows);
      double actual = std::max<double>(1, rule.counters.solutions);
      q_error_max = std::max(q_error_max, std::max(est / actual, actual / est));
    }
  }

  void Merge(const EvalAcc& other) {
    ops += other.ops;
    stats.Add(other.stats);
    evaluate_ms += other.evaluate_ms;
    for (int k = 0; k < kStrata; ++k) stratum_ms[k] += other.stratum_ms[k];
    for (const auto& [key, ms] : other.rule_ms) rule_ms[key] += ms;
    q_error_max = std::max(q_error_max, other.q_error_max);
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------- results

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

// Everything one measured phase produced.
struct Phase {
  std::vector<double> setup_s;  // one per setup repetition
  double wall_s = 0;            // the measured phase, until every caller stopped
  Samples op_ms{11};            // the workload's unit operation
  Samples query_us{13};         // reads
  double rss_mb = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t model_facts = 0;

  // Per-layer sources (traced phase only).
  std::vector<double> load_ms, analyze_ms;
  EvalAcc eval;
  Samples magic_us{17};
  double magic_rules = 0;
  size_t magic_rewrites = 0;
  Samples maintain_us{19}, publish_us{23}, cold_read_us{29};
  double supplies_recomputed = 0;
  size_t supplies_writes = 0;
  uint64_t snapshots_published = 0, analyses_shared = 0;
  double dead_row_ratio = 0;
  size_t indexes = 0;
  double arena_mb = 0;

  void Check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// The unit operation's central figure is its mean, not its median: on a
// shared host the CPU runs this program at two speeds ~1.7x apart that
// alternate every few seconds, so a materialize job's time is bimodal and
// its median jumps between the two modes from run to run, while the mean
// moves only with the share of time spent in each.
Metrics EndToEnd(const Phase& p) {
  return {
      {"setup_s", {Median(p.setup_s), "s"}},
      {"op_ms_mean", {p.op_ms.Mean(), "ms"}},
      {"op_ms_p90", {p.op_ms.Percentile(0.90), "ms"}},
      {"query_us_p50", {p.query_us.Percentile(0.50), "us"}},
      {"query_us_p99", {p.query_us.Percentile(0.99), "us"}},
      {"queries_per_s",
       {Ratio(static_cast<double>(p.query_us.count()), p.wall_s), "1/s"}},
      {"rss_peak_mb", {p.rss_mb, "MB"}},
  };
}

constexpr const char* kSpanNames[] = {
    "Job",          "Session.Load",     "Session.Analyze",
    "Session.Evaluate", "Session.Query", "Session.AddFacts",
    "Session.RemoveFacts", "Service.Load", "Service.Prepare",
    "Service.Query", "Service.AddFacts", "Service.RemoveFacts",
    "MagicRewrite", "ShadowReplay",    "eval.stratum",
    "eval.rule"};

Metrics PerLayer(const Phase& p, const Tracer& tracer, const Phase& untraced) {
  const EvalAcc& e = p.eval;
  const EvalStats& s = e.stats;
  const double ops = std::max<double>(1, static_cast<double>(e.ops));
  auto per_op = [&](double v) { return e.ops == 0 ? 0 : v / ops; };
  Metrics m = {
      {"parser.load_ms", {Median(p.load_ms), "ms"}},
      {"program.analyze_ms", {Median(p.analyze_ms), "ms"}},
      {"eval.evaluate_ms", {per_op(e.evaluate_ms), "ms"}},
      {"eval.rounds", {per_op(s.iterations), "count"}},
      {"eval.rule_firings", {per_op(s.rule_firings), "count"}},
      {"eval.facts_derived", {per_op(s.facts_derived), "count"}},
  };
  for (int k = 0; k < kStrata; ++k)
    m.push_back({StrCat("eval.stratum_ms.", k), {per_op(e.stratum_ms[k]), "ms"}});
  Metrics rest = {
      {"eval.tuples_matched", {per_op(s.tuples_matched), "count"}},
      {"eval.index_probes", {per_op(s.index_probes), "count"}},
      {"eval.probe_hit_ratio", {Ratio(s.probe_hits, s.index_probes), "ratio"}},
      {"eval.derive_ratio", {Ratio(s.facts_derived, s.solutions), "ratio"}},
      {"eval.plans_reordered", {per_op(s.plans_reordered), "count"}},
      {"eval.replans", {per_op(s.replans), "count"}},
      {"eval.est_q_error_max", {e.q_error_max, "ratio"}},
      {"eval.groups_built", {per_op(s.groups_built), "count"}},
      {"eval.group_reuse_ratio",
       {Ratio(s.groups_reused, s.groups_built + s.groups_reused), "ratio"}},
      {"term.set_interns", {per_op(s.set_interns), "count"}},
      {"term.arena_mb", {p.arena_mb, "MB"}},
      {"rewrite.magic_us", {p.magic_us.Percentile(0.5), "us"}},
      {"rewrite.magic_rules",
       {Ratio(p.magic_rules, static_cast<double>(p.magic_rewrites)), "count"}},
      {"eval.saturate_us",
       {p.magic_rewrites == 0
            ? 0
            : std::max(0.0, p.query_us.Percentile(0.5) -
                                p.magic_us.Percentile(0.5)),
        "us"}},
      {"eval.plan_cache_hit_ratio",
       {Ratio(s.plan_cache_hits, s.rule_firings), "ratio"}},
      {"incremental.maintain_us_p50", {p.maintain_us.Percentile(0.5), "us"}},
      {"incremental.maintain_us_p90", {p.maintain_us.Percentile(0.9), "us"}},
      {"incremental.strata_skipped", {per_op(s.strata_skipped), "count"}},
      {"incremental.strata_delta", {per_op(s.strata_delta), "count"}},
      {"incremental.strata_recomputed", {per_op(s.strata_recomputed), "count"}},
      {"incremental.strata_regrown", {per_op(s.strata_regrown), "count"}},
      {"incremental.strata_overdeleted",
       {per_op(s.strata_overdeleted), "count"}},
      {"incremental.rederive_rounds", {per_op(s.rederive_rounds), "count"}},
      {"incremental.count_decrements", {per_op(s.count_decrements), "count"}},
      {"incremental.supplies_strata_recomputed",
       {Ratio(p.supplies_recomputed, static_cast<double>(p.supplies_writes)),
        "count"}},
      {"service.publish_us_p50", {p.publish_us.Percentile(0.5), "us"}},
      {"service.snapshots_published",
       {static_cast<double>(p.snapshots_published), "count"}},
      {"service.analyses_shared",
       {static_cast<double>(p.analyses_shared), "count"}},
      {"service.cold_read_us_p50", {p.cold_read_us.Percentile(0.5), "us"}},
      {"relation.dead_row_ratio", {p.dead_row_ratio, "ratio"}},
      {"relation.indexes", {static_cast<double>(p.indexes), "count"}},
      {"eval.parallel_tasks", {per_op(s.parallel_tasks), "count"}},
      {"eval.delta_shards", {per_op(s.delta_shards), "count"}},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  for (const char* key : kRuleKeys) {
    auto it = e.rule_ms.find(key);
    m.push_back({StrCat("eval.rule_ms.", key),
                 {it == e.rule_ms.end() ? 0 : per_op(it->second), "ms"}});
  }
  std::map<std::string, SpanTotals> totals = tracer.totals();
  for (const char* name : kSpanNames) {
    const SpanTotals& t = totals[name];
    m.push_back({StrCat("self_us.", name),
                 {t.count == 0 ? 0 : NsToUs(t.self_ns) / t.count, "us"}});
  }
  // Tracing overhead: traced minus untraced, per end-to-end metric.
  Metrics traced = EndToEnd(p), plain = EndToEnd(untraced);
  for (size_t i = 0; i < traced.size(); ++i) {
    m.push_back({StrCat("trace_overhead.", traced[i].first),
                 {traced[i].second.value - plain[i].second.value,
                  traced[i].second.unit}});
  }
  return m;
}

// ---------------------------------------------------------------- context

struct Context {
  Inputs inputs;
  Oracle oracle;
  uint64_t seed = 1;
  size_t clients = 2;  // goal-magic clients
};

// Set-up is timed kSetupReps times before the measured phase and
// kSetupRepsAfter times after it, so its median does not rest on one
// moment's host speed.
constexpr int kSetupReps = 5;
constexpr int kSetupRepsAfter = 4;

EvalOptions TracedEval(bool traced) {
  EvalOptions options;
  options.profile = traced;
  return options;
}

// A traced shadow Session holding the workload's program, evaluated with
// profiling; its Load and Analyze times land in `phase`.
std::unique_ptr<Session> LoadShadow(const Context& ctx, SpanRecorder* rec,
                                    Phase* phase) {
  auto session = std::make_unique<Session>();
  uint64_t req = NewRequest(rec);
  int64_t t0 = NowNs();
  Status status;
  {
    ScopedSpan span(rec, "Session.Load", req);
    status = session->Load(ctx.inputs.program);
  }
  int64_t t1 = NowNs();
  if (status.ok()) {
    ScopedSpan span(rec, "Session.Analyze", req);
    status = session->Analyze();
  }
  int64_t t2 = NowNs();
  if (status.ok()) {
    ScopedSpan span(rec, "Session.Evaluate", req);
    status = session->Evaluate(TracedEval(true));
    span.EndWithProfile(session->last_eval_profile());
  }
  if (!status.ok()) {
    std::fprintf(stderr, "session load failed: %s\n", status.ToString().c_str());
    return nullptr;
  }
  phase->load_ms.push_back(NsToMs(t1 - t0));
  phase->analyze_ms.push_back(NsToMs(t2 - t1));
  return session;
}

// Every answer of a goal-directed query equals the expected tuples.
bool SameAnswers(std::vector<Tuple> got, const std::vector<Tuple>& expected) {
  SortTuples(&got);
  return got == expected;
}

// Σ live rows / Σ stored rows (live plus tombstoned) and the index count
// over the program's relations of `db`.
void StorageStats(const ldl::Database& db, const std::vector<ldl::PredId>& preds,
                  double* dead_row_ratio, size_t* indexes) {
  size_t rows = 0, raw_rows = 0;
  *indexes = 0;
  for (ldl::PredId pred : preds) {
    const ldl::Relation* relation = db.FindRelation(pred);
    if (relation == nullptr) continue;
    ldl::RelationStats stats = relation->Stats();
    rows += stats.rows;
    raw_rows += stats.raw_rows;
    *indexes += relation->index_count();
  }
  *dead_row_ratio = raw_rows == 0 ? 0 : 1.0 - Ratio(rows, raw_rows);
}

double ArenaMb(const TermFactory& factory) {
  return static_cast<double>(factory.arena_bytes()) / (1024.0 * 1024.0);
}

// Holds a SpanRecorder for this thread when tracing.
struct ThreadTrace {
  ThreadTrace(Tracer* tracer, uint32_t thread) {
    if (tracer != nullptr) rec.emplace(tracer, thread);
  }
  SpanRecorder* get() { return rec ? &*rec : nullptr; }
  std::optional<SpanRecorder> rec;
};

// ---------------------------------------------------------------- materialize

// Goals per job by kind (reach, young, sp, big): mostly point lookups,
// whose warm repeats hold the query p50; the first reach lookup of a job
// builds reach/2's index and sits in the top 1/16, above p99.
constexpr std::array<size_t, 4> kJobGoals = {4, 6, 6, 0};
constexpr size_t kGoalsPerJob = 16;

// One batch job on a fresh Session: Load -> Analyze -> Evaluate -> a few
// kModel goals, each answer checked. With `timed` the job's time and query
// latencies land in `phase`. Returns the session, or null on failure.
std::unique_ptr<Session> RunJob(const Context& ctx, Rng* rng, bool traced,
                                SpanRecorder* rec, Phase* phase, bool timed) {
  const std::vector<Goal> picked = DrawGoals(ctx.inputs, rng, kJobGoals);
  std::vector<Tuple> answers[kGoalsPerJob];
  double query_us[kGoalsPerJob] = {};

  auto session = std::make_unique<Session>();
  const uint64_t req = NewRequest(rec);
  Status status;
  int64_t start = NowNs(), loaded = 0, analyzed = 0, eval_ns = 0;
  {
    ScopedSpan job(rec, "Job", req);
    {
      ScopedSpan span(rec, "Session.Load", req);
      status = session->Load(ctx.inputs.program);
    }
    loaded = NowNs();
    if (status.ok()) {
      ScopedSpan span(rec, "Session.Analyze", req);
      status = session->Analyze();
    }
    analyzed = NowNs();
    if (status.ok()) {
      ScopedSpan span(rec, "Session.Evaluate", req);
      int64_t e0 = NowNs();
      status = session->Evaluate(TracedEval(traced));
      eval_ns = NowNs() - e0;
      span.EndWithProfile(session->last_eval_profile());
    }
    for (size_t i = 0; status.ok() && i < kGoalsPerJob; ++i) {
      ScopedSpan span(rec, "Session.Query", req);
      int64_t q0 = NowNs();
      ldl::StatusOr<QueryResult> result = session->Query(picked[i].text);
      query_us[i] = NsToUs(NowNs() - q0);
      if (result.ok()) {
        answers[i] = std::move(result->tuples);
      } else {
        status = result.status();
      }
    }
  }
  const int64_t end = NowNs();
  phase->Check(status.ok());
  if (!status.ok()) {
    std::fprintf(stderr, "job failed: %s\n", status.ToString().c_str());
    return nullptr;
  }
  const TermFactory& factory = session->factory();
  for (size_t i = 0; i < kGoalsPerJob; ++i)
    phase->Check(CheckGoal(factory, ctx.oracle, picked[i], answers[i]));
  const ldl::Relation* reach = session->database().FindRelation(
      session->catalog().Find("reach", 2));
  phase->Check(reach != nullptr && reach->size() == ctx.oracle.reach_total);
  phase->Check(CheckSpPartitions(factory, ctx.oracle,
                                 RelationRows(*session, "sp", 2)));
  if (timed) {
    phase->op_ms.Add(NsToMs(end - start));
    for (double us : query_us) phase->query_us.Add(us);
  }
  if (traced && timed) {
    phase->load_ms.push_back(NsToMs(loaded - start));
    phase->analyze_ms.push_back(NsToMs(analyzed - loaded));
    phase->eval.Add(session->last_eval_stats(), session->last_eval_profile(),
                    NsToMs(eval_ns));
  }
  return session;
}

// The once-per-run checks on a materialised session: reach/2 equals the
// BFS closure tuple by tuple, and the database is a model of the program.
void CheckMaterialized(const Context& ctx, Session& session, Phase* phase) {
  phase->Check(CheckReachRelation(session.factory(), ctx.oracle,
                                  RelationRows(session, "reach", 2)));
  ldl::StatusOr<bool> model = ldl::IsModel(session.factory(), session.catalog(),
                                           session.program(), session.database());
  phase->Check(model.ok() && *model);
}

void RunMaterialize(const Context& ctx, double seconds, Tracer* tracer,
                    Phase* phase) {
  const bool traced = tracer != nullptr;
  ThreadTrace trace(tracer, 0);
  Rng rng(ctx.seed * 0x2545f4914f6cdd1dULL + 5);
  // Set-up: a job outside the measured phase (the first one is cold).
  auto setup = [&](int rep) {
    int64_t t0 = NowNs();
    std::unique_ptr<Session> session =
        RunJob(ctx, &rng, traced, trace.get(), phase, false);
    phase->setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (session != nullptr && rep == 0) {
      phase->model_facts = session->database().TotalFacts();
      CheckMaterialized(ctx, *session, phase);
    }
  };
  for (int rep = 0; rep < kSetupReps; ++rep) setup(rep);
  std::unique_ptr<Session> last;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  {
    const CpuRotation rotation(start);
    CpuRotation::Lane lane(rotation, 0);
    for (int64_t now = start; now < deadline; now = NowNs()) {
      lane.Tick(now);
      last.reset();
      last = RunJob(ctx, &rng, traced, trace.get(), phase, true);
      if (!traced) last.reset();
    }
  }
  phase->wall_s = static_cast<double>(NowNs() - start) / 1e9;
  phase->rss_mb = PeakRssMb();
  if (traced && last != nullptr) {
    StorageStats(last->database(), SessionPreds(*last), &phase->dead_row_ratio,
                 &phase->indexes);
    phase->arena_mb = ArenaMb(last->factory());
  }
  last.reset();
  for (int rep = kSetupReps; rep < kSetupReps + kSetupRepsAfter; ++rep)
    setup(rep);
}

// ---------------------------------------------------------------- services

// A loaded Service with its prepared goals and (traced) a shadow Session
// holding the same program, for the per-layer split.
struct Served {
  std::unique_ptr<Service> service;
  std::vector<PreparedQuery> prepared;  // one per goal
  std::vector<ldl::PredId> preds;       // the program's predicates
  std::unique_ptr<Session> shadow;
};

// Set-up of the Service workloads, repeated `reps` times (the last one is
// kept): Service::Load (parse, analyse, first materialise and publish)
// plus Prepare of every goal is timed as setup_s. The shadow Session is
// built only when traced and is not part of setup_s.
Served SetupService(const Context& ctx, const std::vector<Goal>& goals,
                    Tracer* tracer, Phase* phase, int reps = kSetupReps) {
  ThreadTrace trace(tracer, 0);
  SpanRecorder* rec = trace.get();
  Served served;
  for (int rep = 0; rep < reps; ++rep) {
    served = Served();
    auto service = std::make_unique<Service>();
    const uint64_t req = NewRequest(rec);
    const int64_t t0 = NowNs();
    Status status;
    {
      ScopedSpan span(rec, "Service.Load", req);
      status = service->Load(ctx.inputs.program);
    }
    for (size_t i = 0; status.ok() && i < goals.size(); ++i) {
      ScopedSpan span(rec, "Service.Prepare", req);
      ldl::StatusOr<PreparedQuery> prepared = service->Prepare(goals[i].text);
      if (prepared.ok()) {
        served.prepared.push_back(std::move(*prepared));
      } else {
        status = prepared.status();
      }
    }
    phase->setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    phase->Check(status.ok());
    if (!status.ok()) {
      std::fprintf(stderr, "service setup failed: %s\n",
                   status.ToString().c_str());
      return Served();
    }
    served.service = std::move(service);
    if (tracer != nullptr) served.shadow = LoadShadow(ctx, rec, phase);
  }
  // Untimed: the predicates' ids (for the model checks) and the initial
  // model's size and its agreement with the oracle.
  served.preds = ServicePreds(*served.service);
  std::shared_ptr<const ldl::ModelSnapshot> snapshot =
      served.service->snapshot();
  phase->model_facts = snapshot->total_facts();
  const ldl::Relation* reach = snapshot->database().FindRelation(served.preds[4]);
  phase->Check(reach != nullptr &&
               CheckReachRelation(snapshot->factory(), ctx.oracle,
                                  reach->Snapshot()));
  return served;
}

// ---------------------------------------------------------------- goal-magic

void RunGoalMagic(const Context& ctx, double seconds, Tracer* tracer,
                  Phase* phase) {
  const bool traced = tracer != nullptr;
  // Equal shares of young, reach and sp goals: query p50 falls in the
  // middle kind's mode and p90/p99 in the slowest kind's.
  Rng goal_rng(ctx.seed * 0xbf58476d1ce4e5b9ULL + 7);
  std::vector<Goal> goals = DrawGoals(ctx.inputs, &goal_rng, {16, 16, 16, 0});
  Served served = SetupService(ctx, goals, tracer, phase);
  if (served.service == nullptr) return;
  Service& service = *served.service;

  // Untimed: the kModel answer of every goal on the same snapshot, itself
  // checked against the oracle.
  std::vector<std::vector<Tuple>> expected(goals.size());
  for (size_t i = 0; i < goals.size(); ++i) {
    ldl::StatusOr<QueryResult> result = service.Query(served.prepared[i]);
    phase->Check(result.ok() &&
                 CheckGoal(service.snapshot()->factory(), ctx.oracle, goals[i],
                           result->tuples));
    if (result.ok()) {
      expected[i] = std::move(result->tuples);
      SortTuples(&expected[i]);
    }
  }

  QueryOptions options;
  options.strategy = QueryStrategy::kMagic;
  options.eval = TracedEval(traced);
  // Untimed warm-up: each goal once under kMagic, serially. The first
  // rewrite of a binding pattern registers its adorned and magic predicates
  // in the shared catalog; doing that while another query evaluates races
  // with Engine::Fixpoint, which sizes per-predicate vectors from the
  // catalog once and reads them against its live size later (a heap
  // overflow under AddressSanitizer). Later rewrites of the same pattern
  // register nothing.
  for (size_t i = 0; i < goals.size(); ++i) {
    ldl::StatusOr<QueryResult> result = service.Query(served.prepared[i], options);
    phase->Check(result.ok() && SameAnswers(result->tuples, expected[i]));
  }

  // The unit operation here is the query itself, recorded in ms and in us.
  struct Client {
    Samples latency_ms{31};
    Samples latency_us{37};
    uint64_t attempted = 0, failed = 0;
    EvalAcc eval;
  };
  std::vector<Client> clients(ctx.clients);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  const CpuRotation rotation(start);
  std::vector<std::jthread> threads;
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      Client& me = clients[c];
      ThreadTrace trace(tracer, static_cast<uint32_t>(c + 1));
      Rng rng(ctx.seed * 0x94d049bb133111ebULL + c + 1);
      CpuRotation::Lane lane(rotation, c);
      for (int64_t now = start; now < deadline; now = NowNs()) {
        lane.Tick(now);
        size_t i = rng.Below(goals.size());
        ldl::StatusOr<QueryResult> result = Status::OK();
        int64_t t0 = 0, t1 = 0;
        {
          ScopedSpan span(trace.get(), "Service.Query", NewRequest(trace.get()));
          t0 = NowNs();
          result = service.Query(served.prepared[i], options);
          t1 = NowNs();
          if (result.ok()) span.EndWithProfile(result->profile);
        }
        me.latency_ms.Add(NsToMs(t1 - t0));
        me.latency_us.Add(NsToUs(t1 - t0));
        ++me.attempted;
        if (!result.ok() || !SameAnswers(result->tuples, expected[i])) {
          ++me.failed;
          continue;
        }
        if (traced) {
          me.eval.Add(result->stats, result->profile,
                      static_cast<double>(result->profile.total_wall_ns()) / 1e6);
        }
      }
    });
  }
  for (std::jthread& t : threads) t.join();
  phase->wall_s = static_cast<double>(NowNs() - start) / 1e9;
  phase->rss_mb = PeakRssMb();
  for (const Client& c : clients) {
    phase->op_ms.Merge(c.latency_ms);
    phase->query_us.Merge(c.latency_us);
    phase->attempted += c.attempted;
    phase->failed += c.failed;
    phase->eval.Merge(c.eval);
  }
  SetupService(ctx, goals, nullptr, phase, kSetupRepsAfter);

  if (!traced) return;
  std::shared_ptr<const ldl::ModelSnapshot> snapshot = service.snapshot();
  double unused = 0;
  StorageStats(snapshot->database(), served.preds, &unused, &phase->indexes);
  phase->arena_mb = ArenaMb(snapshot->factory());
  // The magic rewrite on its own: the same goals rewritten directly on the
  // shadow Session's program and catalog.
  ThreadTrace trace(tracer, 0);
  Session& shadow = *served.shadow;
  for (const Goal& goal : goals) {
    ldl::StatusOr<PreparedQuery> prepared = shadow.Prepare(goal.text);
    if (!prepared.ok()) continue;
    ScopedSpan span(trace.get(), "MagicRewrite", NewRequest(trace.get()));
    int64_t t0 = NowNs();
    ldl::StatusOr<ldl::MagicProgram> magic =
        ldl::MagicRewrite(shadow.program(), &shadow.catalog(), prepared->goal());
    int64_t t1 = NowNs();
    if (!magic.ok()) continue;
    phase->magic_us.Add(NsToUs(t1 - t0));
    phase->magic_rules += static_cast<double>(magic->rules.rules.size());
    ++phase->magic_rewrites;
  }
}

// ---------------------------------------------------------------- update-churn

// One seeded write. Per kind, writes alternate between adding a batch and
// removing the batch added just before, so the EDB stays at its generated
// size plus at most one batch. Every fourth write touches supplies/2: its
// grouping stratum also holds young, so both directions recompute that
// stratum. The others add or remove edges from fresh source nodes into the
// graph: reach/2 gains (or over-deletes and rederives) one row per node
// the target reaches, through the recursive rule. Removing an edge inside
// the graph instead would make DRed over-delete most of the closure and
// take seconds, and an edge into a fresh sink costs ~80 ms to remove, so
// both would add write modes; with sources, edge writes are one cheap mode
// and supplies writes a slower one, so write p50 falls among edge writes
// and p90 among supplies writes, each well inside its mode.
struct Write {
  bool add = true;
  bool supplies = false;
  std::vector<std::string> facts;
  std::string text;
};

class WriteStream {
 public:
  static constexpr size_t kEdgesPerWrite = 2;

  WriteStream(const Inputs& in, uint64_t seed)
      : in_(in), rng_(seed * 0xd6e8feb86659fd93ULL + 3) {}

  Write Next() {
    Write w;
    const size_t i = count_++;
    w.supplies = i % 4 == 3;
    std::vector<std::string>& pending = w.supplies ? supplies_ : edges_;
    w.add = pending.empty();
    if (!w.add) {
      w.facts.swap(pending);
    } else if (w.supplies) {
      w.facts.push_back(StrCat("supplies(s", rng_.Below(in_.sizes.suppliers),
                               ", partw", i, ")."));
      pending = w.facts;
    } else {
      for (size_t k = 0; k < kEdgesPerWrite; ++k) {
        w.facts.push_back(StrCat("edge(m", i, "_", k, ", n",
                                 rng_.Below(in_.sizes.nodes), ")."));
      }
      pending = w.facts;
    }
    for (const std::string& fact : w.facts) StrAppend(w.text, fact, "\n");
    return w;
  }

 private:
  const Inputs& in_;
  Rng rng_;
  size_t count_ = 0;
  std::vector<std::string> edges_, supplies_;
};

// The EDB program text after the first `n` writes of `log`.
std::string ProgramAfter(const Context& ctx, const std::vector<Write>& log,
                         size_t n) {
  std::multiset<std::string> live;
  for (size_t i = 0; i < n; ++i) {
    for (const std::string& fact : log[i].facts) {
      if (log[i].add) {
        live.insert(fact);
      } else {
        live.erase(live.find(fact));
      }
    }
  }
  std::string text = ctx.inputs.program;
  for (const std::string& fact : live) StrAppend(text, fact, "\n");
  return text;
}

// A version is checked against a scratch evaluation when its seeded hash
// selects it.
bool SampledVersion(uint64_t seed, uint64_t version) {
  return ldl::HashCombine(seed, version) % 8 == 0;
}

void RunUpdateChurn(const Context& ctx, double seconds, Tracer* tracer,
                    Phase* phase) {
  const bool traced = tracer != nullptr;
  // The reader picks uniformly from 40 goals, 32 of them point lookups
  // (young, sp): query p50 falls among those and p99 among the reach/big
  // scans.
  Rng goal_rng(ctx.seed * 0xbf58476d1ce4e5b9ULL + 7);
  std::vector<Goal> goals = DrawGoals(ctx.inputs, &goal_rng, {4, 16, 16, 4});
  Served served = SetupService(ctx, goals, tracer, phase);
  if (served.service == nullptr) return;
  Service& service = *served.service;
  const uint64_t first_version = service.snapshot()->version();
  const ldl::ServiceStats stats_before = service.stats();

  struct Recorded {
    uint64_t version;
    size_t goal;
    std::vector<Tuple> tuples;
  };
  struct Reader {
    Samples latency_us{41};
    Samples cold_us{43};
    uint64_t attempted = 0, failed = 0;
    std::vector<Recorded> recorded;
    size_t indexes = 0;  // built on the last snapshot this reader used
  };
  constexpr size_t kRecordsPerVersion = 8;
  constexpr int64_t kWritePeriodNs = 25'000'000;  // 40 writes per second
  // One reader. Every read acquires the published snapshot (one mutex and
  // one shared refcount), so two readers contend on those cache lines; on
  // a shared 4-vCPU x86 VM that made two readers' throughput and p99 flip
  // between two levels ~1.7x apart from run to run, depending on which
  // vCPUs they landed on, while one reader's figures stay within a few
  // percent.
  constexpr size_t kReaders = 1;
  std::vector<Reader> readers(kReaders);
  std::vector<Write> log;
  WriteStream stream(ctx.inputs, ctx.seed);

  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  const CpuRotation rotation(start);
  std::vector<std::jthread> threads;
  for (size_t r = 0; r < readers.size(); ++r) {
    threads.emplace_back([&, r] {
      Reader& me = readers[r];
      ThreadTrace trace(tracer, static_cast<uint32_t>(r + 1));
      Rng rng(ctx.seed * 0x9e3779b97f4a7c15ULL + 101 + r);
      uint64_t last_version = 0;
      size_t recorded_here = 0;
      std::shared_ptr<const ldl::ModelSnapshot> snapshot;
      CpuRotation::Lane lane(rotation, r + 1);
      for (int64_t now = start; now < deadline; now = NowNs()) {
        lane.Tick(now);
        size_t i = rng.Below(goals.size());
        // Service::Query is snapshot() + ModelSnapshot::Query; calling the
        // two directly is the same work and tells which version answered.
        ldl::StatusOr<QueryResult> result = Status::OK();
        int64_t t0 = 0, t1 = 0;
        {
          ScopedSpan span(trace.get(), "Service.Query", NewRequest(trace.get()));
          t0 = NowNs();
          snapshot = service.snapshot();
          result = snapshot->Query(served.prepared[i]);
          t1 = NowNs();
        }
        const double us = NsToUs(t1 - t0);
        me.latency_us.Add(us);
        ++me.attempted;
        if (!result.ok()) {
          ++me.failed;
          continue;
        }
        const uint64_t version = snapshot->version();
        if (version != last_version) {
          me.cold_us.Add(us);
          last_version = version;
          recorded_here = 0;
        }
        if (SampledVersion(ctx.seed, version) &&
            recorded_here < kRecordsPerVersion) {
          me.recorded.push_back({version, i, std::move(result->tuples)});
          ++recorded_here;
        }
      }
      if (snapshot != nullptr) {
        double unused = 0;
        StorageStats(snapshot->database(), served.preds, &unused, &me.indexes);
      }
    });
  }

  // The writer runs on this thread, paced to one write per kWritePeriodNs
  // slot: it still waits for each reply, but the number of writes (and so
  // the tombstones and memory they leave) does not depend on how fast the
  // host runs. After a write that overruns its slot the writer catches up
  // without waiting.
  {
    ThreadTrace trace(tracer, 0);
    SpanRecorder* rec = trace.get();
    CpuRotation::Lane lane(rotation, 0);
    for (int64_t slot = start; slot < deadline; slot += kWritePeriodNs) {
      if (int64_t wait = slot - NowNs(); wait > 0)
        std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      const int64_t now = NowNs();
      if (now >= deadline) break;
      lane.Tick(now);
      Write w = stream.Next();
      const uint64_t req = NewRequest(rec);
      Status status;
      int64_t t0 = 0, t1 = 0;
      {
        ScopedSpan span(rec, w.add ? "Service.AddFacts" : "Service.RemoveFacts",
                        req);
        t0 = NowNs();
        status = w.add ? service.AddFacts(w.text) : service.RemoveFacts(w.text);
        t1 = NowNs();
      }
      phase->op_ms.Add(NsToMs(t1 - t0));
      phase->Check(status.ok());
      log.push_back(std::move(w));
      if (!traced || !status.ok()) continue;

      // Replay the write on the shadow Session: its maintenance time is the
      // Service write's incremental-maintenance share.
      const Write& done = log.back();
      Session& shadow = *served.shadow;
      int64_t m0 = 0, m1 = 0, e0 = 0;
      Status replay;
      {
        ScopedSpan span(rec, "ShadowReplay", req);
        m0 = NowNs();
        {
          ScopedSpan inner(rec, done.add ? "Session.AddFacts"
                                         : "Session.RemoveFacts", req);
          replay = done.add ? shadow.AddFacts(done.text)
                            : shadow.RemoveFacts(done.text);
        }
        if (replay.ok()) {
          ScopedSpan inner(rec, "Session.Evaluate", req);
          e0 = NowNs();
          replay = shadow.Evaluate(TracedEval(true));
          m1 = NowNs();
          inner.EndWithProfile(shadow.last_eval_profile());
        }
      }
      phase->Check(replay.ok());
      if (!replay.ok()) continue;
      const double maintain_us = NsToUs(m1 - m0);
      phase->maintain_us.Add(maintain_us);
      phase->publish_us.Add(std::max(0.0, NsToUs(t1 - t0) - maintain_us));
      phase->eval.Add(shadow.last_eval_stats(), shadow.last_eval_profile(),
                      NsToMs(m1 - e0));
      if (done.supplies) {
        phase->supplies_recomputed +=
            static_cast<double>(shadow.last_eval_stats().strata_recomputed);
        ++phase->supplies_writes;
      }
    }
  }
  for (std::jthread& t : threads) t.join();
  phase->wall_s = static_cast<double>(NowNs() - start) / 1e9;
  phase->rss_mb = PeakRssMb();
  for (const Reader& r : readers) {
    phase->query_us.Merge(r.latency_us);
    phase->cold_read_us.Merge(r.cold_us);
    phase->attempted += r.attempted;
    phase->failed += r.failed;
    phase->indexes = std::max(phase->indexes, r.indexes);
  }

  // Untimed checks. Each write published exactly one version, so version
  // v answered with the EDB after the first v - first_version writes.
  std::shared_ptr<const ldl::ModelSnapshot> final_snapshot = service.snapshot();
  phase->Check(final_snapshot->version() == first_version + log.size());
  auto scratch_after = [&](size_t writes) {
    auto scratch = std::make_unique<Session>();
    Status status = scratch->Load(ProgramAfter(ctx, log, writes));
    if (status.ok()) status = scratch->Evaluate();
    return status.ok() ? std::move(scratch) : nullptr;
  };
  {
    std::unique_ptr<Session> scratch = scratch_after(log.size());
    phase->Check(scratch != nullptr &&
                 RenderModel(scratch->factory(), scratch->database(),
                             SessionPreds(*scratch)) ==
                     RenderModel(final_snapshot->factory(),
                                 final_snapshot->database(), served.preds));
  }
  // Reader answers at up to kCheckedVersions sampled versions, chosen in
  // seeded order.
  constexpr size_t kCheckedVersions = 3;
  std::map<uint64_t, std::vector<const Recorded*>> by_version;
  for (const Reader& r : readers) {
    for (const Recorded& rec : r.recorded) by_version[rec.version].push_back(&rec);
  }
  std::vector<uint64_t> versions;
  for (const auto& [version, records] : by_version) versions.push_back(version);
  std::sort(versions.begin(), versions.end(), [&](uint64_t a, uint64_t b) {
    return ldl::HashCombine(ctx.seed + 1, a) < ldl::HashCombine(ctx.seed + 1, b);
  });
  if (versions.size() > kCheckedVersions) versions.resize(kCheckedVersions);
  for (uint64_t version : versions) {
    std::unique_ptr<Session> scratch = scratch_after(version - first_version);
    for (const Recorded* rec : by_version[version]) {
      if (scratch == nullptr) {
        phase->Check(false);
        continue;
      }
      ldl::StatusOr<QueryResult> expected = scratch->Query(goals[rec->goal].text);
      phase->Check(expected.ok() &&
                   Render(scratch->factory(), expected->tuples) ==
                       Render(final_snapshot->factory(), rec->tuples));
    }
  }

  SetupService(ctx, goals, nullptr, phase, kSetupRepsAfter);
  const ldl::ServiceStats stats_after = service.stats();
  phase->snapshots_published =
      stats_after.snapshots_published - stats_before.snapshots_published;
  phase->analyses_shared =
      stats_after.analyses_shared - stats_before.analyses_shared;
  if (!traced) return;
  phase->arena_mb = ArenaMb(final_snapshot->factory());
  // Tombstones live in the writer's Session, which the shadow mirrors; a
  // published snapshot holds only live rows.
  size_t unused = 0;
  StorageStats(served.shadow->database(), SessionPreds(*served.shadow),
               &phase->dead_row_ratio, &unused);
}

// ---------------------------------------------------------------- self-test

// Each oracle must accept the engine's answer and reject the same answer
// with one tuple dropped, so a broken checker cannot report no failures.
int SelfTest() {
  Context ctx;
  ctx.inputs = MakeInputs(kTinySizes, 1);
  ctx.oracle = MakeOracle(ctx.inputs);
  Session session;
  Status status = session.Load(ctx.inputs.program);
  if (status.ok()) status = session.Evaluate();
  if (!status.ok()) {
    std::printf("selftest: evaluation failed: %s\n", status.ToString().c_str());
    return 1;
  }
  const TermFactory& factory = session.factory();
  int failures = 0;
  auto expect = [&](const std::string& name, bool accepts, bool rejects) {
    std::printf("selftest %-28s accepts answer: %s, rejects one tuple dropped: %s\n",
                name.c_str(), accepts ? "ok" : "FAIL", rejects ? "ok" : "FAIL");
    if (!accepts || !rejects) ++failures;
  };
  auto dropped = [](std::vector<Tuple> tuples) {
    if (!tuples.empty()) tuples.pop_back();
    return tuples;
  };

  // materialize: reach/2 vs the BFS closure, sp/2 partitions, IsModel.
  std::vector<Tuple> reach = RelationRows(session, "reach", 2);
  expect("reach-closure", CheckReachRelation(factory, ctx.oracle, reach),
         !CheckReachRelation(factory, ctx.oracle, dropped(reach)));
  std::vector<Tuple> sp = RelationRows(session, "sp", 2);
  expect("sp-partitions", CheckSpPartitions(factory, ctx.oracle, sp),
         !CheckSpPartitions(factory, ctx.oracle, dropped(sp)));
  {
    std::vector<ldl::PredId> preds = SessionPreds(session);
    ldl::Database corrupted(&session.catalog());
    corrupted.CopyFrom(session.database(), preds);
    corrupted.relation(preds[4]).Erase(reach.back());
    ldl::StatusOr<bool> whole = ldl::IsModel(session.factory(), session.catalog(),
                                             session.program(), session.database());
    ldl::StatusOr<bool> broken = ldl::IsModel(session.factory(), session.catalog(),
                                              session.program(), corrupted);
    expect("is-model", whole.ok() && *whole, broken.ok() && !*broken);
  }
  // Goal answers: the per-goal oracle (materialize jobs, goal-magic set-up)
  // and the kMagic == kModel comparison (goal-magic).
  Rng goal_rng(1);
  for (const Goal& goal : DrawGoals(ctx.inputs, &goal_rng, {1, 1, 1, 1})) {
    ldl::StatusOr<QueryResult> model = session.Query(goal.text);
    QueryOptions magic_options;
    magic_options.strategy = QueryStrategy::kMagic;
    ldl::StatusOr<QueryResult> magic = session.Query(goal.text, magic_options);
    if (!model.ok() || !magic.ok() || model->tuples.empty()) continue;
    expect(StrCat("goal ", goal.text),
           CheckGoal(factory, ctx.oracle, goal, model->tuples),
           !CheckGoal(factory, ctx.oracle, goal, dropped(model->tuples)));
    std::vector<Tuple> expected = model->tuples;
    SortTuples(&expected);
    expect(StrCat("magic==model ", goal.text),
           SameAnswers(magic->tuples, expected),
           !SameAnswers(dropped(magic->tuples), expected));
    // update-churn reader answers vs a scratch evaluation.
    expect(StrCat("reader ", goal.text),
           Render(factory, magic->tuples) == Render(factory, model->tuples),
           Render(factory, dropped(magic->tuples)) !=
               Render(factory, model->tuples));
  }
  // update-churn: the final snapshot vs a scratch Session.
  {
    Service service;
    Session scratch;
    Status loaded = service.Load(ctx.inputs.program);
    if (loaded.ok()) loaded = scratch.Load(ctx.inputs.program);
    if (loaded.ok()) loaded = scratch.Evaluate();
    std::vector<ldl::PredId> preds = ServicePreds(service);
    auto snapshot = service.snapshot();
    std::vector<std::string> published =
        RenderModel(snapshot->factory(), snapshot->database(), preds);
    std::vector<std::string> reference = RenderModel(
        scratch.factory(), scratch.database(), SessionPreds(scratch));
    std::vector<std::string> corrupted = reference;
    if (!corrupted.empty()) corrupted.pop_back();
    expect("final-snapshot", loaded.ok() && published == reference,
           published != corrupted);
  }
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------- output

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, ptr) : "0";
}

std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    StrAppend(out, i == 0 ? "" : ", ", "\"", metrics[i].first,
              "\": {\"value\": ", Num(metrics[i].second.value),
              ", \"unit\": \"", metrics[i].second.unit, "\"}");
  }
  return out + "}";
}

std::string LoadAverage() {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) return "[]";
  return StrCat("[", Num(load[0]), ", ", Num(load[1]), ", ", Num(load[2]), "]");
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool selftest = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string_view flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        return false;
      args->trace = value[0] == '1';
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return args->selftest || args->workload == "materialize" ||
         args->workload == "goal-magic" || args->workload == "update-churn";
}

void RunWorkload(const std::string& workload, const Context& ctx,
                 double seconds, Tracer* tracer, Phase* phase) {
  if (workload == "materialize") {
    RunMaterialize(ctx, seconds, tracer, phase);
  } else if (workload == "goal-magic") {
    RunGoalMagic(ctx, seconds, tracer, phase);
  } else {
    RunUpdateChurn(ctx, seconds, tracer, phase);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ldl_perfbench --workload "
                 "<materialize|goal-magic|update-churn> --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE] [--tiny]\n"
                 "       ldl_perfbench --selftest\n");
    return 2;
  }
  // Refuse timings from an unoptimised build.
  const std::string build_type = LDL_PERFBENCH_BUILD_TYPE;
#if !defined(__OPTIMIZE__)
  const bool optimized = false;
#else
  const bool optimized = build_type == "Release" || build_type == "RelWithDebInfo";
#endif
  if (!optimized && !args.selftest) {
    std::fprintf(stderr,
                 "error: built as '%s' without optimisation; timings are only "
                 "taken from a Release or RelWithDebInfo build\n",
                 build_type.c_str());
    return 3;
  }
  if (args.selftest) return SelfTest();

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const std::string load_start = LoadAverage();
  Context ctx;
  ctx.seed = args.seed;
  ctx.inputs = MakeInputs(args.tiny ? kTinySizes : kFullSizes, args.seed);
  ctx.oracle = MakeOracle(ctx.inputs);
  // goal-magic clients: 2, kept within the host's cores.
  ctx.clients = std::min<size_t>(2, nproc);

  Phase plain, traced;
  Tracer tracer;
  Metrics metrics;
  if (!args.trace) {
    RunWorkload(args.workload, ctx, args.seconds, nullptr, &plain);
    metrics = EndToEnd(plain);
  } else {
    // Half the time untraced, half traced: the per-layer split and, as
    // their difference, the tracing overhead.
    RunWorkload(args.workload, ctx, args.seconds / 2, nullptr, &plain);
    RunWorkload(args.workload, ctx, args.seconds / 2, &tracer, &traced);
    metrics = PerLayer(traced, tracer, plain);
  }
  const uint64_t attempted = plain.attempted + traced.attempted;
  const uint64_t failed = plain.failed + traced.failed;
  const Phase& main_phase = args.trace ? traced : plain;

  const bool magic = args.workload == "goal-magic";
  const bool churn = args.workload == "update-churn";
  const Sizes& sz = ctx.inputs.sizes;
  std::string info = StrCat(
      "{\"workload\": \"", args.workload, "\", \"seed\": ", args.seed,
      ", \"seconds\": ", Num(args.seconds), ", \"trace\": ", args.trace ? 1 : 0,
      ", \"nproc\": ", nproc, ", \"load_avg_start\": ", load_start,
      ", \"load_avg_end\": ", LoadAverage(), ", \"build_type\": \"", build_type,
      "\", \"threads\": {\"clients\": ", magic ? ctx.clients : 0,
      ", \"writers\": ", churn ? 1 : 0, ", \"readers\": ", churn ? 1 : 0,
      ", \"total\": ", magic ? ctx.clients : churn ? 2 : 1, "}");
  StrAppend(info, ", \"sizes\": {\"nodes\": ", sz.nodes, ", \"edges\": ",
            sz.edges, ", \"roots\": ", sz.roots, ", \"branching\": ",
            sz.branching, ", \"depth\": ", sz.depth, ", \"suppliers\": ",
            sz.suppliers, ", \"parts_per\": ", sz.parts_per,
            ", \"part_pool\": ", sz.part_pool, "}, \"edb_facts\": ",
            ctx.inputs.edb_facts, ", \"model_facts\": ", main_phase.model_facts,
            ", \"ops\": ", main_phase.op_ms.count(), ", \"queries\": ",
            main_phase.query_us.count(), ", \"attempted\": ", attempted,
            ", \"failed\": ", failed, ", \"failed_ratio\": ",
            Num(Ratio(static_cast<double>(failed), static_cast<double>(attempted))),
            "}");
  if (args.trace && !args.trace_out.empty() &&
      !tracer.Write(args.trace_out, info)) {
    std::fprintf(stderr, "warning: could not write %s\n", args.trace_out.c_str());
  }

  std::printf("info: %s\n", info.c_str());
  for (const auto& [name, m] : metrics)
    std::printf("%-44s %16.4f %s\n", name.c_str(), m.value, m.unit);
  std::printf("%-44s %16.6f %s\n", "failed_ratio",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              "fraction");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 && attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(1, attempted)),
              static_cast<unsigned long long>(failed),
              MetricsJson(metrics).c_str());
  return 0;
}
