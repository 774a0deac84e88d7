// Pinned end-to-end guarantee of the structured event log: evaluation
// with PRAGMA EVENTS = ON must produce bit-identical query results and
// deterministic EvalStats to EVENTS = OFF — telemetry may only observe,
// never change answers or reported logical counters. Also pins the
// surface behaviour (PRAGMA EVENTS, SHOW EVENTS), the per-query resource
// attribution, and that every telemetry surface reports the one per-query
// record, against the live Database + Interpreter stack.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "ast/builder.h"
#include "common/trace.h"
#include "core/database.h"
#include "lang/interpreter.h"
#include "workload/generators.h"

namespace datacon {
namespace {

/// Canonical form of a relation: sorted tuple renderings.
std::vector<std::string> Canonical(const Relation& rel) {
  std::vector<std::string> out;
  for (const Tuple& t : rel.tuples()) {
    std::string row;
    for (const Value& v : t.values()) row += v.ToString() + "|";
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The deterministic EvalStats fields as one comparable string.
std::string StatsDigest(const EvalStats& s) {
  return "iterations=" + std::to_string(s.iterations) +
         " considered=" + std::to_string(s.tuples_considered) +
         " inserted=" + std::to_string(s.tuples_inserted) +
         " outer=" + std::to_string(s.outer_tuples) +
         " specialized=" + std::to_string(s.specialized_branches) +
         " pruned=" + std::to_string(s.seed_tuples_pruned);
}

struct RunOutcome {
  std::vector<std::vector<std::string>> results;
  std::string last_stats_digest;
  std::string last_usage_digest;
};

/// Executes `source` from scratch with events on or off and canonicalizes
/// every QUERY result.
RunOutcome RunScript(const std::string& source, bool events) {
  DatabaseOptions options;
  options.events = events;
  Database db(options);
  Interpreter interp(&db);
  Status s = interp.Execute(source);
  EXPECT_TRUE(s.ok()) << s.ToString();
  RunOutcome outcome;
  for (const Interpreter::QueryResult& r : interp.results()) {
    outcome.results.push_back(Canonical(r.relation));
  }
  outcome.last_stats_digest = StatsDigest(db.last_stats());
  outcome.last_usage_digest = FormatQueryLines(
      db.last_query(),
      {QueryLine::kResult, QueryLine::kCache, QueryLine::kResources});
  return outcome;
}

constexpr const char* kAheadProgram = R"(
TYPE parttype = STRING;
TYPE infrontrel = RELATION OF RECORD front, back: parttype END;
TYPE aheadrel = RELATION OF RECORD head, tail: parttype END;
VAR Infront: infrontrel;

CONSTRUCTOR ahead FOR Rel: infrontrel (): aheadrel;
BEGIN EACH r IN Rel: TRUE,
      <f.front, b.tail> OF EACH f IN Rel,
      EACH b IN Rel {ahead}: f.back = b.head
END ahead;

INSERT INTO Infront <"vase", "table">, <"table", "chair">, <"chair", "wall">;
INSERT INTO Infront <"lamp", "desk">, <"desk", "rug">, <"rug", "floor">;

QUERY Infront {ahead};
)";

/// The overhead-neutrality acceptance test: every example program produces
/// bit-identical results, EvalStats, AND resource attribution with the
/// event log on vs off.
TEST(EventsSemantics, EveryExampleProgramIsBitIdentical) {
  const std::filesystem::path dir(DATACON_EXAMPLES_DIR);
  size_t examples = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".dbpl") continue;
    ++examples;
    std::ifstream in(entry.path());
    ASSERT_TRUE(in.good()) << entry.path();
    std::ostringstream buffer;
    buffer << in.rdbuf();
    RunOutcome on = RunScript(buffer.str(), /*events=*/true);
    RunOutcome off = RunScript(buffer.str(), /*events=*/false);
    EXPECT_EQ(on.results, off.results) << entry.path();
    EXPECT_EQ(on.last_stats_digest, off.last_stats_digest) << entry.path();
    EXPECT_EQ(on.last_usage_digest, off.last_usage_digest) << entry.path();
  }
  // The corpus exists and was actually exercised.
  EXPECT_GE(examples, 5u);
}

TEST(EventsSemantics, QueriesEmitStartAndFinishEvents) {
  DatabaseOptions options;
  options.events = true;
  Database db(options);
  Interpreter interp(&db);
  ASSERT_TRUE(interp.Execute(kAheadProgram).ok());
  std::vector<Event> events = db.events().Events();
  ASSERT_FALSE(events.empty());
  size_t starts = 0, finishes = 0;
  for (const Event& e : events) {
    if (e.type == "query.start") ++starts;
    if (e.type == "query.finish") ++finishes;
  }
  EXPECT_GE(starts, 1u);
  EXPECT_EQ(starts, finishes);
  // query.finish carries the resource attribution.
  for (const Event& e : events) {
    if (e.type != "query.finish") continue;
    bool has_materialized = false;
    for (const EventField& f : e.fields) {
      if (f.key == "materialized") has_materialized = true;
    }
    EXPECT_TRUE(has_materialized);
  }
}

TEST(EventsSemantics, PragmaTogglesAndShowEventsRenders) {
  Database db;
  Interpreter interp(&db);
  ASSERT_TRUE(interp.Execute(kAheadProgram).ok());
  EXPECT_TRUE(db.events().Events().empty());  // off by default

  ASSERT_TRUE(interp.Execute("PRAGMA EVENTS = ON;\n"
                             "QUERY Infront {ahead};").ok());
  EXPECT_FALSE(db.events().Events().empty());
  EXPECT_EQ(interp.Execute("PRAGMA EVENTS = 2;").code(),
            StatusCode::kInvalidArgument);

  interp.ClearResults();
  ASSERT_TRUE(interp.Execute("SHOW EVENTS;").ok());
  ASSERT_EQ(interp.results().size(), 1u);
  const std::string& text = interp.results()[0].text;
  EXPECT_NE(text.find("EVENTS:"), std::string::npos);
  EXPECT_NE(text.find("query.finish"), std::string::npos) << text;

  // OFF stops recording (retained events stay visible).
  size_t count = db.events().Events().size();
  ASSERT_TRUE(interp.Execute("PRAGMA EVENTS = OFF;\n"
                             "QUERY Infront {ahead};").ok());
  EXPECT_EQ(db.events().Events().size(), count);
}

TEST(EventsSemantics, CacheOutcomesAreAttributedPerQuery) {
  DatabaseOptions options;
  options.use_capture_rules = false;  // drive the component cache path
  options.events = true;
  Database db(options);
  Interpreter interp(&db);
  ASSERT_TRUE(interp.Execute(kAheadProgram).ok());
  // Cold run: the component cache missed.
  EXPECT_GE(db.last_cache_stats().misses, 1);
  EXPECT_EQ(db.last_cache_stats().hits, 0);
  EXPECT_GT(db.last_usage().tuples_materialized, 0u);
  EXPECT_GT(db.last_usage().approx_bytes, 0u);
  EXPECT_GT(db.last_usage().peak_delta_tuples, 0u);

  // Repeat: a hit, visible in both the attribution and the event stream.
  ASSERT_TRUE(interp.Execute("QUERY Infront {ahead};").ok());
  EXPECT_GE(db.last_cache_stats().hits, 1);
  EXPECT_EQ(db.last_cache_stats().misses, 0);
  bool saw_cache_hit = false;
  for (const Event& e : db.events().Events()) {
    if (e.type == "cache.hit") saw_cache_hit = true;
  }
  EXPECT_TRUE(saw_cache_hit);
}

/// The "k=v" tokens of `text`.
std::map<std::string, std::string> KeyValues(const std::string& text) {
  std::map<std::string, std::string> out;
  std::istringstream in(text);
  std::string token;
  while (in >> token) {
    size_t eq = token.find('=');
    if (eq == std::string::npos) continue;
    out[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return out;
}

/// The line of `text` starting with `prefix` (without it), or "".
std::string LineAfter(const std::string& text, const std::string& prefix) {
  size_t at = text.find(prefix);
  if (at == std::string::npos) return "";
  at += prefix.size();
  return text.substr(at, text.find('\n', at) - at);
}

/// Asserts that every telemetry surface of the most recent query reports
/// the values of db.last_query(), and that the record's cache delta is the
/// cache's own counter movement from `before` to `after`. `explain` is the
/// query's EXPLAIN ANALYZE text, empty for a plain QUERY.
void ExpectSurfacesAgree(const Database& db, const std::string& explain,
                         const MatCacheStats& before,
                         const MatCacheStats& after) {
  const QueryRecord& record = db.last_query();
  EXPECT_EQ(record.cache.hits, after.hits - before.hits);
  EXPECT_EQ(record.cache.misses, after.misses - before.misses);
  EXPECT_EQ(record.cache.delta_maintained,
            after.delta_maintained - before.delta_maintained);
  const std::string index = std::to_string(record.eval_index);

  // Slow log (SLOW_QUERY_MS = 0): the digest's first four lines are the
  // record; the profile tree follows.
  std::map<std::string, std::string> digest;
  for (const SlowQueryLog::Entry& e : db.slow_query_log().Entries()) {
    size_t end = 0;
    for (int line = 0; line < 4 && end != std::string::npos; ++line) {
      end = e.digest.find('\n', end == 0 ? 0 : end + 1);
    }
    std::map<std::string, std::string> kv = KeyValues(e.digest.substr(0, end));
    if (kv["eval_index"] == index) digest = kv;
  }
  std::map<std::string, std::string> finish;
  for (const Event& e : db.events().Events()) {
    if (e.type != "query.finish") continue;
    std::map<std::string, std::string> kv;
    for (const EventField& f : e.fields) {
      kv[f.key] = f.is_int ? std::to_string(f.int_value) : f.str_value;
    }
    if (kv["eval_index"] == index) finish = kv;
  }
  std::map<std::string, std::string> span;
  for (const TraceEvent& e : TraceRecorder::Global().Snapshot().events) {
    if (e.name != "evaluate") continue;
    std::map<std::string, std::string> kv;
    for (const TraceArg& a : e.args) {
      kv[a.key] = a.is_int ? std::to_string(a.int_value) : a.str_value;
    }
    if (kv["eval_index"] == index) span = kv;
  }
  ASSERT_FALSE(digest.empty()) << "no slow-log entry for query " << index;
  ASSERT_FALSE(finish.empty()) << "no query.finish for query " << index;
  ASSERT_FALSE(span.empty()) << "no evaluate span for query " << index;
  EXPECT_EQ(digest["plan"], record.plan);
  EXPECT_EQ(finish["plan"], record.plan);
  EXPECT_EQ(span["plan"], record.plan);
  for (const QueryField& f : kQueryFields) {
    const std::string want = std::to_string(f.get(record));
    EXPECT_EQ(digest[f.key], want) << "slow-log digest " << f.key;
    EXPECT_EQ(finish[f.key], want) << "query.finish " << f.key;
    EXPECT_EQ(span[f.key], want) << "evaluate span " << f.key;
  }
  if (explain.empty()) return;

  // Plain prefix matches, not std::regex: libstdc++'s regex trips a GCC 12
  // -Wmaybe-uninitialized false positive under -fsanitize=address.
  EXPECT_TRUE(LineAfter(explain, "result: ")
                  .starts_with(digest["result_tuples"] + " tuple(s), " +
                               digest["rounds"] + " round(s), " +
                               digest["tuples_considered"] + " considered, " +
                               digest["tuples_inserted"] + " inserted"))
      << explain;
  const std::string hits = std::to_string(after.hits - before.hits);
  const std::string misses = std::to_string(after.misses - before.misses);
  EXPECT_EQ(digest["cache_hits"], hits);
  EXPECT_EQ(digest["cache_misses"], misses);
  EXPECT_TRUE(LineAfter(explain, "cache: ")
                  .starts_with(hits + " hit(s), " + misses + " miss(es)"))
      << explain;
  std::map<std::string, std::string> resources =
      KeyValues(LineAfter(explain, "resources: "));
  ASSERT_FALSE(resources.empty()) << explain;
  for (const auto& [key, value] : resources) {
    EXPECT_EQ(value, digest[key]) << "resources line " << key;
  }
}

/// StatsDigest plus the index counters.
std::string FullStatsDigest(const EvalStats& s) {
  return StatsDigest(s) + " index_builds=" + std::to_string(s.index_builds) +
         " index_probes=" + std::to_string(s.index_probes);
}

/// The one-record guarantee: a capture-shaped closure evaluated cold, then
/// warm, then through its seeded plan; for each query, EXPLAIN ANALYZE, the
/// slow-log digest, query.finish and the evaluate span report the same
/// numbers, and the cache counts match the cache's own counters. (Before
/// the record, a warm EXPLAIN ANALYZE printed "cache: 1 hit(s)" above a
/// resources line claiming cache_hits=0.)
TEST(EventsSemantics, EverySurfaceReportsTheOneQueryRecord) {
  DatabaseOptions options;
  options.events = true;
  Database db(options);
  Interpreter interp(&db);
  ASSERT_TRUE(interp.Execute(kAheadProgram).ok());
  db.mat_cache().Clear();  // the program's own QUERY warmed the closure
  ASSERT_TRUE(interp.Execute("PRAGMA SLOW_QUERY_MS = 0;").ok());
  TraceRecorder::Global().Clear();
  TraceRecorder::Global().Enable(true);

  struct Step {
    const char* statement;
    bool explain;
    const char* plan;
    int64_t hits, misses;
    const char* stats;
    size_t peak_delta;  // the closure a capture or seeded plan computed
  };
  // `stats`: the EvalStats the engine reported for these general-plan and
  // seeded-closure queries before the per-query record existed.
  const Step steps[] = {
      {"EXPLAIN ANALYZE Infront {ahead};", true, "general", 0, 1,
       "iterations=0 considered=12 inserted=12 outer=12 specialized=0 "
       "pruned=0 index_builds=0 index_probes=0",
       12},
      {"EXPLAIN ANALYZE Infront {ahead};", true, "general", 1, 0,
       "iterations=0 considered=12 inserted=12 outer=12 specialized=0 "
       "pruned=0 index_builds=0 index_probes=0",
       0},
      {"QUERY { <x.tail> OF EACH x IN Infront {ahead}: x.head = \"vase\" };",
       false, "seeded_closure", 0, 0,
       "iterations=0 considered=3 inserted=3 outer=3 specialized=0 pruned=0 "
       "index_builds=0 index_probes=0",
       3},
  };
  for (const Step& step : steps) {
    SCOPED_TRACE(step.statement);
    interp.ClearResults();
    MatCacheStats before = db.mat_cache().stats();
    ASSERT_TRUE(interp.Execute(step.statement).ok());
    MatCacheStats after = db.mat_cache().stats();
    ASSERT_EQ(interp.results().size(), 1u);
    EXPECT_STREQ(db.last_query().plan, step.plan);
    EXPECT_EQ(db.last_cache_stats().hits, step.hits);
    EXPECT_EQ(db.last_cache_stats().misses, step.misses);
    EXPECT_EQ(FullStatsDigest(db.last_stats()), step.stats);
    EXPECT_EQ(db.last_usage().peak_delta_tuples, step.peak_delta);
    // The registry's cache.* counters (SHOW METRICS, Prometheus) are the
    // record's cache deltas summed, so they track the cache's own totals.
    EXPECT_EQ(db.metrics().GetCounter("cache.hits")->value(), after.hits);
    EXPECT_EQ(db.metrics().GetCounter("cache.misses")->value(), after.misses);
    ExpectSurfacesAgree(db, step.explain ? interp.results()[0].text : "",
                        before, after);
  }
  // The cold query installed the closure through a capture rule.
  bool saw_capture = false;
  for (const TraceEvent& e : TraceRecorder::Global().Snapshot().events) {
    if (e.name == "capture") saw_capture = true;
  }
  EXPECT_TRUE(saw_capture);
  TraceRecorder::Global().Enable(false);
  TraceRecorder::Global().Clear();
}

TEST(EventsSemantics, ConstraintViolationsEmitEvents) {
  DatabaseOptions options;
  options.events = true;
  Database db(options);
  Interpreter interp(&db);
  ASSERT_TRUE(interp
                  .Execute("TYPE edgerel = RELATION OF RECORD src, dst: "
                           "INTEGER END;\n"
                           "VAR Edge: edgerel;\n"
                           "CONSTRAINT no_self_loop DENY EACH p IN Edge: "
                           "p.src = p.dst;\n"
                           "INSERT INTO Edge <1, 2>;")
                  .ok());
  EXPECT_EQ(interp.Execute("INSERT INTO Edge <3, 3>;").code(),
            StatusCode::kConstraintViolation);
  bool saw_violation = false;
  for (const Event& e : db.events().Events()) {
    if (e.type != "constraint.violation") continue;
    saw_violation = true;
    bool has_name = false;
    for (const EventField& f : e.fields) {
      if (f.key == "name" && f.str_value == "no_self_loop") has_name = true;
    }
    EXPECT_TRUE(has_name);
  }
  EXPECT_TRUE(saw_violation);
}

TEST(EventsSemantics, ExplainAnalyzeReportsResources) {
  Database db;
  Interpreter interp(&db);
  ASSERT_TRUE(interp.Execute(kAheadProgram).ok());
  interp.ClearResults();
  ASSERT_TRUE(interp.Execute("EXPLAIN ANALYZE Infront {ahead};").ok());
  ASSERT_EQ(interp.results().size(), 1u);
  const std::string& text = interp.results()[0].text;
  EXPECT_NE(text.find("resources: peak_delta="), std::string::npos) << text;
  EXPECT_NE(text.find("approx_bytes="), std::string::npos) << text;
}

TEST(EventsSemantics, SlowLogEntriesCarryTimestampsAndResources) {
  Database db;  // threshold 0: everything is admitted
  workload::EdgeList g = workload::RandomDigraph(16, 40, 3);
  ASSERT_TRUE(workload::SetupClosure(&db, "g", g).ok());
  using namespace build;  // NOLINT: terse AST construction
  ASSERT_TRUE(db.EvalRange(Constructed(Rel("g_E"), "g_tc")).ok());
  std::vector<SlowQueryLog::Entry> entries = db.slow_query_log().Entries();
  ASSERT_FALSE(entries.empty());
  EXPECT_GT(entries[0].wall_us, 0);
  EXPECT_GE(entries[0].steady_ns, 0);
  EXPECT_NE(entries[0].digest.find("peak_delta="), std::string::npos)
      << entries[0].digest;
  // SHOW SLOWLOG renders the wall-clock timestamp.
  std::string text = db.slow_query_log().ToText();
  EXPECT_NE(text.find("at 20"), std::string::npos) << text;
  EXPECT_NE(text.find("steady="), std::string::npos) << text;
}

/// Attribution is deterministic across thread counts (the same contract
/// EvalStats honours).
TEST(EventsSemantics, ResourceUsageIsThreadCountInvariant) {
  using namespace build;  // NOLINT: terse AST construction
  workload::EdgeList g = workload::RandomDigraph(48, 160, 11);
  std::string usage_1, usage_8;
  for (size_t threads : {size_t{1}, size_t{8}}) {
    Database db;
    ASSERT_TRUE(workload::SetupClosure(&db, "g", g).ok());
    db.options().eval.exec.num_threads = threads;
    Result<Relation> r = db.EvalRange(Constructed(Rel("g_E"), "g_tc"));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // The result line's snapshot/chunk counters vary with the thread
    // count by design; its index builds do not.
    (threads == 1 ? usage_1 : usage_8) =
        FormatQueryLines(db.last_query(),
                         {QueryLine::kCache, QueryLine::kResources}) +
        " index_builds=" + std::to_string(db.last_stats().index_builds);
  }
  EXPECT_EQ(usage_1, usage_8);
}

}  // namespace
}  // namespace datacon
