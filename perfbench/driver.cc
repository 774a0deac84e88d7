// perfbench driver: runs one seeded, fixed-work workload against the engine
// through its public entry points (Interpreter::Execute, Database::Prepare /
// PreparedQuery::Execute, Database::InsertAll, assignment statements), checks
// every result against the workload's oracle, and prints one JSON result line.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
// the same sequence untraced and then traced, requires every logical counter
// of every operation to match between the two, and reports the per-layer
// metrics: self times from the trace spans (the engine's own plus this
// driver's span around each public call) and counters from the public
// accessors. --seconds sets the operation count (a fixed number of
// operations per nominal second), never a time budget.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/trace.h"
#include "core/database.h"
#include "lang/interpreter.h"
#include "workloads.h"

namespace perfbench {
namespace {

using datacon::Database;
using datacon::Interpreter;
using datacon::PreparedQuery;
using datacon::Relation;
using datacon::Status;
using datacon::StatusCode;
using datacon::TraceRecorder;
using datacon::TraceSpan;
using Clock = std::chrono::steady_clock;

/// Timed set-ups per pass, half before the ops and half after them;
/// setup_s is the median over the passes of each pass's fastest set-up.
constexpr int kSetupReps = 4;

/// Definition statement kinds as the interpreter labels its spans.
const std::set<std::string> kDefinitionKinds = {
    "type decl",       "var decl",         "selector decl",
    "constructor decl", "constructor group", "constraint decl"};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
};

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Linear-interpolated quantile of `values` (sorted copy), q in [0, 1].
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

/// Per-span-name totals over a traced interval.
struct SpanTotals {
  struct Entry {
    int64_t total_ns = 0;
    int64_t self_ns = 0;
    int64_t count = 0;
  };
  std::map<std::string, Entry> by_name;
  /// Inclusive time of definition / INSERT statements (set-up only).
  int64_t define_ns = 0;
  int64_t load_ns = 0;

  double TotalMs(const std::string& name) const {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0 : static_cast<double>(it->second.total_ns) / 1e6;
  }
  double SelfMs(const std::string& name) const {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0 : static_cast<double>(it->second.self_ns) / 1e6;
  }
};

/// Drains the recorder into `totals`: every complete span adds its duration
/// to its name's total and its duration minus the time its direct children
/// cover to its self time. Nesting is recovered per thread from interval
/// containment.
void DrainTrace(SpanTotals* totals) {
  TraceRecorder& rec = TraceRecorder::Global();
  std::vector<datacon::TraceEvent> events = rec.Snapshot().events;
  rec.Clear();
  std::vector<const datacon::TraceEvent*> spans;
  for (const auto& e : events) {
    if (e.phase == datacon::TraceEvent::Phase::kComplete) spans.push_back(&e);
  }
  std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
    if (a->tid != b->tid) return a->tid < b->tid;
    if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
    return a->dur_ns > b->dur_ns;  // parents before children
  });
  std::vector<int64_t> child_ns(spans.size(), 0);
  std::vector<size_t> stack;
  for (size_t i = 0; i < spans.size(); ++i) {
    const auto* e = spans[i];
    while (!stack.empty()) {
      const auto* top = spans[stack.back()];
      if (top->tid == e->tid && e->start_ns + e->dur_ns <= top->start_ns + top->dur_ns &&
          e->start_ns >= top->start_ns) {
        break;
      }
      stack.pop_back();
    }
    if (!stack.empty()) child_ns[stack.back()] += e->dur_ns;
    stack.push_back(i);
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const auto* e = spans[i];
    SpanTotals::Entry& entry = totals->by_name[e->name];
    entry.total_ns += e->dur_ns;
    entry.self_ns += e->dur_ns - child_ns[i];
    ++entry.count;
    if (e->name != "statement") continue;
    for (const auto& arg : e->args) {
      if (arg.key != "kind") continue;
      if (kDefinitionKinds.count(arg.str_value)) totals->define_ns += e->dur_ns;
      if (arg.str_value == "insert") totals->load_ns += e->dur_ns;
    }
  }
}

/// The logical counters the public accessors expose for one operation. They
/// must be identical in the untraced and the traced pass.
const char* const kCounterNames[] = {
    "status",
    "result_tuples",
    "relation_size",
    "iterations",
    "tuples_considered",
    "tuples_inserted",
    "outer_tuples",
    "index_builds",
    "index_probes",
    "snapshot_materializations",
    "chunks_dispatched",
    "specialized_branches",
    "seed_tuples_pruned",
    "peak_delta_tuples",
    "tuples_materialized",
    "approx_bytes",
    "cache_hits",
    "cache_misses",
    "cache_invalidations",
    "cache_delta_maintained",
    "cache_evictions",
    "constraint_checks",
    "constraint_simplified",
    "constraint_full_rechecks",
    "constraint_violations",
};
constexpr size_t kNumCounters = sizeof(kCounterNames) / sizeof(kCounterNames[0]);
enum CounterIndex : size_t {
  kStatus, kResultTuples, kRelationSize, kIterations, kTuplesConsidered,
  kTuplesInserted, kOuterTuples, kIndexBuilds, kIndexProbes, kSnapshots,
  kChunks, kSpecializedBranches, kSeedTuplesPruned, kPeakDelta,
  kMaterialized, kApproxBytes, kCacheHits, kCacheMisses, kCacheInvalidations,
  kCacheDelta, kCacheEvictions, kConstraintChecks, kConstraintSimplified,
  kConstraintFull, kConstraintViolations,
};

/// Snapshot of the database-lifetime counters an op moves.
struct Lifetime {
  datacon::MatCacheStats cache;
  int64_t checks = 0, simplified = 0, full = 0, violations = 0;

  static Lifetime Read(Database* db) {
    Lifetime out;
    out.cache = db->mat_cache().stats();
    datacon::MetricsRegistry& m = db->metrics();
    out.checks = m.GetCounter("constraints.checks")->value();
    out.simplified = m.GetCounter("constraints.simplified")->value();
    out.full = m.GetCounter("constraints.full_rechecks")->value();
    out.violations = m.GetCounter("constraints.violations")->value();
    return out;
  }
};

struct OpRecord {
  double latency_ms = 0;
  bool failed = false;
  std::vector<int64_t> counters;
};

struct PassResult {
  std::vector<double> setup_s;
  std::vector<SpanTotals> setup_spans;
  std::vector<OpRecord> ops;
  SpanTotals op_spans;
  double busy_s = 0;
  /// Empty unless an oracle check failed.
  std::string error;
};

class Runner {
 public:
  Runner(const Workload& w, bool traced) : w_(w), traced_(traced) {}

  PassResult Run() {
    // The last set-up before the ops builds the database they run on.
    // Timing set-ups on both sides of the ops spreads them over the pass,
    // so that the pass's fastest one rarely falls in a slow phase of the
    // host.
    for (int rep = 0; rep < kSetupReps / 2 && result_.error.empty(); ++rep) {
      Setup();
    }
    if (!result_.error.empty()) return std::move(result_);
    for (const Form& form : w_.forms) {
      auto prepared = db_->Prepare(form.expr, form.placeholders);
      if (!prepared.ok()) {
        result_.error = "prepare failed: " + prepared.status().ToString();
        return std::move(result_);
      }
      prepared_.push_back(std::move(prepared).value());
    }
    for (const Op& op : w_.warmup) {
      RunOp(op);
      if (!result_.error.empty()) return std::move(result_);
    }
    SetTracing(true);
    for (const Op& op : w_.ops) {
      result_.ops.push_back(RunOp(op));
      result_.busy_s += result_.ops.back().latency_ms / 1e3;
      if (traced_) DrainTrace(&result_.op_spans);
      if (!result_.error.empty()) break;
    }
    SetTracing(false);
    if (result_.error.empty()) CheckFinalRelations();
    prepared_.clear();
    for (int rep = kSetupReps / 2; rep < kSetupReps && result_.error.empty();
         ++rep) {
      Setup();
    }
    return std::move(result_);
  }

 private:
  void SetTracing(bool on) {
    if (!traced_) return;
    TraceRecorder::Global().Clear();
    TraceRecorder::Global().Enable(on);
  }

  void Setup() {
    interp_.reset();
    db_ = std::make_unique<Database>();
    interp_ = std::make_unique<Interpreter>(db_.get());
    SetTracing(true);
    auto start = Clock::now();
    Status status;
    for (const std::string& script : w_.setup) {
      TraceSpan span("bench setup");
      status = interp_->Execute(script);
      if (!status.ok()) break;
    }
    auto end = Clock::now();
    SpanTotals spans;
    if (traced_) DrainTrace(&spans);
    SetTracing(false);
    if (!status.ok()) {
      result_.error = "set-up failed: " + status.ToString();
      return;
    }
    result_.setup_s.push_back(Seconds(end - start));
    result_.setup_spans.push_back(std::move(spans));
  }

  /// Runs one op with only the public call inside the timed interval, then
  /// reads its counters and checks it against the oracle.
  OpRecord RunOp(const Op& op) {
    Lifetime before = Lifetime::Read(db_.get());
    Status status;
    std::optional<Relation> result;
    Clock::time_point start, end;
    switch (op.kind) {
      case OpKind::kQuery: {
        start = Clock::now();
        {
          TraceSpan span("bench query");
          status = interp_->Execute(op.text);
        }
        end = Clock::now();
        if (status.ok()) result = interp_->results().back().relation;
        interp_->ClearResults();
        break;
      }
      case OpKind::kPrepared: {
        start = Clock::now();
        datacon::Result<Relation> value = [&] {
          TraceSpan span("bench prepared");
          return prepared_[static_cast<size_t>(op.form)].Execute(op.params);
        }();
        end = Clock::now();
        status = value.status();
        if (value.ok()) result = std::move(value).value();
        break;
      }
      case OpKind::kInsert: {
        start = Clock::now();
        {
          TraceSpan span("bench insert");
          status = db_->InsertAll(op.relation, op.tuples);
        }
        end = Clock::now();
        break;
      }
      case OpKind::kDelete: {
        start = Clock::now();
        {
          TraceSpan span("bench delete");
          status = interp_->Execute(op.text);
        }
        end = Clock::now();
        break;
      }
    }
    OpRecord rec;
    rec.latency_ms = Seconds(end - start) * 1e3;
    rec.counters.assign(kNumCounters, 0);
    rec.counters[kStatus] = static_cast<int64_t>(status.code());
    Lifetime after = Lifetime::Read(db_.get());
    rec.counters[kCacheHits] = after.cache.hits - before.cache.hits;
    rec.counters[kCacheMisses] = after.cache.misses - before.cache.misses;
    rec.counters[kCacheInvalidations] =
        after.cache.invalidations - before.cache.invalidations;
    rec.counters[kCacheDelta] =
        after.cache.delta_maintained - before.cache.delta_maintained;
    rec.counters[kCacheEvictions] = after.cache.evictions - before.cache.evictions;
    rec.counters[kConstraintChecks] = after.checks - before.checks;
    rec.counters[kConstraintSimplified] = after.simplified - before.simplified;
    rec.counters[kConstraintFull] = after.full - before.full;
    rec.counters[kConstraintViolations] = after.violations - before.violations;
    const datacon::EvalStats& s = db_->last_stats();
    const datacon::ResourceUsage& u = db_->last_usage();
    auto n = [](size_t v) { return static_cast<int64_t>(v); };
    rec.counters[kIterations] = n(s.iterations);
    rec.counters[kTuplesConsidered] = n(s.tuples_considered);
    rec.counters[kTuplesInserted] = n(s.tuples_inserted);
    rec.counters[kOuterTuples] = n(s.outer_tuples);
    rec.counters[kIndexBuilds] = n(s.index_builds);
    rec.counters[kIndexProbes] = n(s.index_probes);
    rec.counters[kSnapshots] = n(s.snapshot_materializations);
    rec.counters[kChunks] = n(s.chunks_dispatched);
    rec.counters[kSpecializedBranches] = n(s.specialized_branches);
    rec.counters[kSeedTuplesPruned] = n(s.seed_tuples_pruned);
    rec.counters[kPeakDelta] = n(u.peak_delta_tuples);
    rec.counters[kMaterialized] = n(u.tuples_materialized);
    rec.counters[kApproxBytes] = n(u.approx_bytes);
    if (result.has_value()) rec.counters[kResultTuples] = n(result->size());
    if (!op.relation.empty()) {
      auto rel = db_->GetRelation(op.relation);
      if (rel.ok()) rec.counters[kRelationSize] = n(rel.value()->size());
    }
    Check(op, status, result, &rec);
    return rec;
  }

  void Fail(const Op& op, const std::string& why) {
    if (!result_.error.empty()) return;
    result_.error = w_.classes[static_cast<size_t>(op.cls)].name + " op `" +
                    (op.text.empty() ? op.relation : op.text) + "`: " + why;
  }

  /// The oracle check: a wrong result or state aborts the run; an
  /// unexpected error status marks the op failed.
  void Check(const Op& op, const Status& status,
             const std::optional<Relation>& result, OpRecord* rec) {
    bool refused = status.code() == StatusCode::kConstraintViolation;
    if (op.expect_refused ? !refused : !status.ok()) {
      rec->failed = true;
      if (op.kind == OpKind::kQuery || op.kind == OpKind::kPrepared) return;
    }
    if (result.has_value()) {
      std::vector<Tuple> got = result->SortedTuples();
      if (got != op.expected) {
        Fail(op, "result has " + std::to_string(got.size()) +
                     " tuples, oracle " + std::to_string(op.expected.size()));
      }
      return;
    }
    if (op.kind != OpKind::kInsert && op.kind != OpKind::kDelete) return;
    auto rel = db_->GetRelation(op.relation);
    if (!rel.ok()) return Fail(op, rel.status().ToString());
    if (rel.value()->size() != op.expected_size) {
      Fail(op, "relation has " + std::to_string(rel.value()->size()) +
                   " tuples, oracle " + std::to_string(op.expected_size));
    }
    for (const Tuple& t : op.present) {
      if (!rel.value()->Contains(t)) Fail(op, "missing " + t.ToString());
    }
    for (const Tuple& t : op.absent) {
      if (rel.value()->Contains(t)) Fail(op, "unexpected " + t.ToString());
    }
  }

  void CheckFinalRelations() {
    for (const auto& [name, tuples] : w_.final_relations) {
      auto rel = db_->GetRelation(name);
      if (!rel.ok() || rel.value()->SortedTuples() != tuples) {
        result_.error = "final contents of " + name + " differ from the oracle";
        return;
      }
    }
  }

  const Workload& w_;
  bool traced_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Interpreter> interp_;
  std::vector<PreparedQuery> prepared_;
  PassResult result_;
};

// ---------------------------------------------------------------------------
// Reporting.

struct MetricOut {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

std::vector<double> Latencies(const Workload& w, const PassResult& pass,
                              Metric metric, int cls = -1) {
  std::vector<double> out;
  for (size_t i = 0; i < pass.ops.size(); ++i) {
    const Op& op = w.ops[i];
    if (w.classes[static_cast<size_t>(op.cls)].metric != metric) continue;
    if (cls >= 0 && op.cls != cls) continue;
    out.push_back(pass.ops[i].latency_ms);
  }
  return out;
}

/// Fails (with a message) unless every logical counter of every op agrees.
bool SameCounters(const PassResult& a, const PassResult& b, const char* what) {
  for (size_t i = 0; i < a.ops.size(); ++i) {
    for (size_t k = 0; k < kNumCounters; ++k) {
      if (a.ops[i].counters[k] == b.ops[i].counters[k]) continue;
      std::fprintf(stderr,
                   "%s diverged: op %zu counter %s is %lld in the first "
                   "untraced pass, %lld here\n",
                   what, i, kCounterNames[k],
                   static_cast<long long>(a.ops[i].counters[k]),
                   static_cast<long long>(b.ops[i].counters[k]));
      return false;
    }
  }
  return true;
}

/// Folds a later pass into `into` (the first pass): each op's latency
/// becomes its minimum over the passes so far. The later pass is dropped
/// afterwards, so peak memory does not grow with the number of passes.
void FoldPass(const PassResult& pass, PassResult* into) {
  for (size_t i = 0; i < into->ops.size(); ++i) {
    into->ops[i].latency_ms =
        std::min(into->ops[i].latency_ms, pass.ops[i].latency_ms);
  }
}

std::vector<MetricOut> EndToEnd(const Workload& w, const PassResult& pass) {
  std::vector<double> query = Latencies(w, pass, Metric::kQuery);
  double ops = static_cast<double>(pass.ops.size());
  double summed_s = 0;
  for (const OpRecord& r : pass.ops) summed_s += r.latency_ms / 1e3;
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return {
      {"setup_s", Quantile(pass.setup_s, 0.5), "s"},
      {"query_p50_ms", Quantile(query, 0.5), "ms"},
      {"query_p95_ms", Quantile(query, 0.95), "ms"},
      {"ops_per_s", ops / summed_s, "1/s"},
      {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
  };
}

std::vector<MetricOut> PerLayer(const Workload& w, const PassResult& plain,
                                const PassResult& traced) {
  const SpanTotals& t = traced.op_spans;
  double ops = static_cast<double>(traced.ops.size());
  auto per_op = [&](double ms) { return ms / ops; };
  std::vector<double> parse_ms, define_ms, load_ms;
  for (const SpanTotals& s : traced.setup_spans) {
    parse_ms.push_back(s.TotalMs("parse"));
    define_ms.push_back(static_cast<double>(s.define_ns) / 1e6);
    load_ms.push_back(static_cast<double>(s.load_ns) / 1e6);
  }
  // Logical counters summed over query ops (EvalStats / ResourceUsage) or
  // over every op (cache and constraint deltas).
  std::vector<int64_t> query_sum(kNumCounters, 0), all_sum(kNumCounters, 0);
  int64_t peak_delta = 0;
  for (size_t i = 0; i < traced.ops.size(); ++i) {
    const std::vector<int64_t>& c = traced.ops[i].counters;
    bool is_query = w.classes[static_cast<size_t>(w.ops[i].cls)].metric ==
                    Metric::kQuery;
    for (size_t k = 0; k < kNumCounters; ++k) {
      all_sum[k] += c[k];
      if (is_query) query_sum[k] += c[k];
    }
    if (is_query) peak_delta = std::max(peak_delta, c[kPeakDelta]);
  }
  auto ratio = [](int64_t num, int64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  auto count = [](int64_t v) { return static_cast<double>(v); };
  int64_t lookups = all_sum[kCacheHits] + all_sum[kCacheMisses] +
                    all_sum[kCacheDelta];
  std::vector<double> inserts = Latencies(w, plain, Metric::kInsert);
  std::vector<double> deletes = Latencies(w, plain, Metric::kDelete);
  double api_self = 0;
  for (const char* name : {"bench query", "bench prepared", "bench insert",
                           "bench delete"}) {
    api_self += t.SelfMs(name);
  }
  return {
      {"lang.parse_ms", per_op(t.TotalMs("parse")), "ms/op"},
      {"lang.statement_self_ms", per_op(t.SelfMs("statement")), "ms/op"},
      {"lang.setup_parse_ms", Quantile(parse_ms, 0.5), "ms"},
      {"analysis.define_ms", Quantile(define_ms, 0.5), "ms"},
      {"storage.load_ms", Quantile(load_ms, 0.5), "ms"},
      {"core.evaluate_self_ms", per_op(t.SelfMs("evaluate")), "ms/op"},
      {"core.capture_ms", per_op(t.TotalMs("capture")), "ms/op"},
      {"core.seeded_closure_ms", per_op(t.TotalMs("seeded closure")), "ms/op"},
      {"core.plan_ms", per_op(t.TotalMs("plan specialize")), "ms/op"},
      {"core.fixpoint.round_self_ms", per_op(t.SelfMs("round")), "ms/op"},
      {"core.fixpoint.component_self_ms", per_op(t.SelfMs("component")),
       "ms/op"},
      {"core.fixpoint.rounds", count(query_sum[kIterations]), "count"},
      {"storage.tuples_inserted", count(query_sum[kTuplesInserted]), "count"},
      {"storage.dedup_ratio",
       ratio(query_sum[kTuplesInserted], query_sum[kTuplesConsidered]),
       "ratio"},
      {"ra.branch_self_ms", per_op(t.SelfMs("branch")), "ms/op"},
      {"ra.query_branches_self_ms", per_op(t.SelfMs("query branches")),
       "ms/op"},
      {"ra.tuples_considered", count(query_sum[kTuplesConsidered]), "count"},
      {"ra.outer_tuples", count(query_sum[kOuterTuples]), "count"},
      {"ra.index_probes", count(query_sum[kIndexProbes]), "count"},
      {"storage.index_build_ms", per_op(t.TotalMs("index build")), "ms/op"},
      {"storage.index_builds", count(query_sum[kIndexBuilds]), "count"},
      {"core.specialize.seed_tuples_pruned",
       count(query_sum[kSeedTuplesPruned]), "count"},
      {"core.specialize.specialized_branches",
       count(query_sum[kSpecializedBranches]), "count"},
      {"core.usage.peak_delta_tuples", count(peak_delta), "count"},
      {"core.usage.tuples_materialized", count(query_sum[kMaterialized]),
       "count"},
      {"core.matcache_ms", per_op(t.TotalMs("cache")), "ms/op"},
      {"core.matcache.hits", count(all_sum[kCacheHits]), "count"},
      {"core.matcache.misses", count(all_sum[kCacheMisses]), "count"},
      {"core.matcache.delta_maintained", count(all_sum[kCacheDelta]), "count"},
      {"core.matcache.invalidations", count(all_sum[kCacheInvalidations]),
       "count"},
      {"core.matcache.evictions", count(all_sum[kCacheEvictions]), "count"},
      {"core.matcache.hit_ratio",
       ratio(all_sum[kCacheHits] + all_sum[kCacheDelta], lookups), "ratio"},
      {"analysis.constraint_check_ms", per_op(t.TotalMs("constraint")),
       "ms/op"},
      {"analysis.constraint.checks", count(all_sum[kConstraintChecks]),
       "count"},
      {"analysis.constraint.simplified", count(all_sum[kConstraintSimplified]),
       "count"},
      {"analysis.constraint.full_rechecks", count(all_sum[kConstraintFull]),
       "count"},
      {"analysis.constraint.violations", count(all_sum[kConstraintViolations]),
       "count"},
      // Share of constraint checks answered without the full denial
      // (base: checks); `simplified` itself counts residue executions.
      {"analysis.constraint.simplified_ratio",
       ratio(all_sum[kConstraintChecks] - all_sum[kConstraintFull],
             all_sum[kConstraintChecks]),
       "ratio"},
      {"api.call_self_ms", per_op(api_self), "ms/op"},
      {"write.insert_p50_ms", Quantile(inserts, 0.5), "ms"},
      {"write.insert_p95_ms", Quantile(inserts, 0.95), "ms"},
      {"write.delete_p50_ms", Quantile(deletes, 0.5), "ms"},
      {"trace.overhead_pct", 100.0 * (traced.busy_s / plain.busy_s - 1.0),
       "%"},
  };
}

/// The run's identity and shape, printed as one JSON line before the
/// result: build, host, sizes, per-pass busy time, per-class op counts and
/// latencies (the inputs of the percentile rule), and latency modes.
std::string Info(const Args& args, const Workload& w, const PassResult& pass,
                 const std::vector<double>& pass_busy_s) {
  std::ostringstream out;
  out << "{\"info\":{\"workload\":" << Quote(w.name) << ",\"seed\":" << args.seed
      << ",\"seconds\":" << args.seconds << ",\"trace\":" << args.trace
      << ",\"compiler\":" << Quote(PERFBENCH_COMPILER)
      << ",\"build_type\":" << Quote(PERFBENCH_BUILD_TYPE)
      << ",\"threads\":" << Database().options().eval.exec.num_threads
      << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
      << ",\"passes\":" << w.passes
      << ",\"setup_reps\":" << w.passes * kSetupReps
      << ",\"warmup_ops\":" << w.warmup.size()
      << ",\"ops\":" << pass.ops.size() << ",\"pass_busy_s\":[";
  for (size_t i = 0; i < pass_busy_s.size(); ++i) {
    out << (i ? "," : "") << Num(pass_busy_s[i]);
  }
  out << "],\"sizes\":[";
  for (size_t i = 0; i < w.sizes.size(); ++i) {
    out << (i ? "," : "") << Quote(w.sizes[i]);
  }
  out << "],\"classes\":{";
  for (size_t c = 0; c < w.classes.size(); ++c) {
    std::vector<double> lat =
        Latencies(w, pass, w.classes[c].metric, static_cast<int>(c));
    const char* metric = w.classes[c].metric == Metric::kQuery    ? "query"
                         : w.classes[c].metric == Metric::kInsert ? "insert"
                                                                  : "delete";
    out << (c ? "," : "") << Quote(w.classes[c].name) << ":{\"metric\":\""
        << metric << "\",\"ops\":" << lat.size()
        << ",\"p50_ms\":" << Num(Quantile(lat, 0.5))
        << ",\"p95_ms\":" << Num(Quantile(lat, 0.95)) << "}";
  }
  // Latency modes: each class split by the cache outcome and constraint
  // recheck kind the op met, the finer classes the percentile rule needs.
  std::map<std::string, std::pair<Metric, std::vector<double>>> modes;
  for (size_t i = 0; i < pass.ops.size(); ++i) {
    const std::vector<int64_t>& c = pass.ops[i].counters;
    const OpClass& cls = w.classes[static_cast<size_t>(w.ops[i].cls)];
    std::string mode = cls.name;
    if (c[kCacheMisses] > 0) {
      mode += "/cache_miss";
    } else if (c[kCacheDelta] > 0) {
      mode += "/cache_delta";
    } else if (c[kCacheHits] > 0) {
      mode += "/cache_hit";
    }
    if (c[kConstraintFull] > 0) mode += "/full_recheck";
    modes[mode].first = cls.metric;
    modes[mode].second.push_back(pass.ops[i].latency_ms);
  }
  out << "},\"modes\":{";
  bool first = true;
  for (const auto& [mode, entry] : modes) {
    out << (first ? "" : ",") << Quote(mode) << ":{\"metric\":\""
        << (entry.first == Metric::kQuery    ? "query"
            : entry.first == Metric::kInsert ? "insert"
                                             : "delete")
        << "\",\"ops\":" << entry.second.size()
        << ",\"p50_ms\":" << Num(Quantile(entry.second, 0.5)) << "}";
    first = false;
  }
  int64_t failed = 0;
  for (const OpRecord& r : pass.ops) failed += r.failed;
  out << "},\"error_rate\":"
      << Num(pass.ops.empty() ? 0 : static_cast<double>(failed) /
                                        static_cast<double>(pass.ops.size()))
      << "}}";
  return out.str();
}

/// The result line. Only runs whose every op passed the oracle get here; a
/// mismatch exits nonzero without a result.
void PrintResult(size_t attempted, int64_t failed,
                 const std::vector<MetricOut>& metrics) {
  std::string out = "{\"correct\":true,\"attempted\":" +
                    std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? "," : "") + Quote(metrics[i].name) +
           ":{\"value\":" + Num(metrics[i].value) +
           ",\"unit\":" + Quote(metrics[i].unit) + "}";
  }
  std::printf("%s}}\n", out.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = std::atoi(value.c_str());
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  std::unique_ptr<Workload> w =
      MakeWorkload(args.workload, args.seed, std::max(1, args.seconds));
  if (w == nullptr || (args.trace != 0 && args.trace != 1)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  // w->passes untraced passes over the same sequence, each on fresh
  // databases; an op's latency is its minimum over the passes, which
  // discounts host interference that lasts less than a pass. On a shared
  // host the process runs in fast and slow phases (up to 2x slower, for a
  // tenth of a second to a few seconds), so an op needs many samples spread
  // over the run before one of them lands in a fast phase; a p95 is the
  // first statistic to move when some ops get none.
  //
  // On a shared host one CPU can run slow for many seconds while the others
  // do not, so pass p is pinned to the p-th CPU of the process's affinity
  // set (round robin): a slow CPU then costs at most some of an op's
  // samples. Only one thread ever runs at a time.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof(allowed), &allowed);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  auto pin = [&](int p) {
    if (cpus.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[static_cast<size_t>(p) % cpus.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  };
  PassResult plain;
  std::vector<double> pass_busy_s, best_setup_s;
  for (int p = 0; p < w->passes; ++p) {
    pin(p);
    PassResult pass = Runner(*w, false).Run();
    if (!pass.error.empty()) {
      std::fprintf(stderr, "oracle mismatch: %s\n", pass.error.c_str());
      return 1;
    }
    pass_busy_s.push_back(pass.busy_s);
    best_setup_s.push_back(
        *std::min_element(pass.setup_s.begin(), pass.setup_s.end()));
    if (p == 0) {
      plain = std::move(pass);
      continue;
    }
    if (!SameCounters(plain, pass, "untraced pass")) return 1;
    FoldPass(pass, &plain);
  }
  plain.busy_s = Quantile(pass_busy_s, 0.5);
  plain.setup_s = std::move(best_setup_s);
  std::printf("%s\n", Info(args, *w, plain, pass_busy_s).c_str());
  int64_t failed = 0;
  for (const OpRecord& r : plain.ops) failed += r.failed;
  if (args.trace == 0) {
    PrintResult(plain.ops.size(), failed, EndToEnd(*w, plain));
    return 0;
  }
  pin(0);
  PassResult traced = Runner(*w, true).Run();
  if (!traced.error.empty()) {
    std::fprintf(stderr, "oracle mismatch (traced): %s\n", traced.error.c_str());
    return 1;
  }
  if (!SameCounters(plain, traced, "traced pass")) return 1;
  PrintResult(plain.ops.size(), failed, PerLayer(*w, plain, traced));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
