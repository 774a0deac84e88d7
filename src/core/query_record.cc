#include "core/query_record.h"

namespace datacon {
namespace {

constexpr QueryField kTable[] = {
    {"eval_index", QueryLine::kOutcome, nullptr, false, nullptr,
     [](auto& r) -> int64_t { return r.eval_index; }},
    {"ok", QueryLine::kOutcome, nullptr, false, nullptr,
     [](auto& r) -> int64_t { return r.ok; }},
    {"elapsed_ns", QueryLine::kOutcome, nullptr, false, "query.latency_ns",
     [](auto& r) -> int64_t { return r.elapsed_ns; }},
    {"typed_proven", QueryLine::kOutcome, nullptr, false, nullptr,
     [](auto& r) -> int64_t { return r.typed_proven; }},
    {"result_tuples", QueryLine::kResult, "tuple(s)", false, nullptr,
     [](auto& r) -> int64_t { return r.result_tuples; }},
    {"rounds", QueryLine::kResult, "round(s)", false, "query.fixpoint_rounds",
     [](auto& r) -> int64_t { return r.stats.iterations; }},
    {"tuples_considered", QueryLine::kResult, "considered", false, nullptr,
     [](auto& r) -> int64_t { return r.stats.tuples_considered; }},
    {"tuples_inserted", QueryLine::kResult, "inserted", false,
     "query.tuples_inserted",
     [](auto& r) -> int64_t { return r.stats.tuples_inserted; }},
    {"specialized_branches", QueryLine::kResult, "specialized branch(es)", true,
     nullptr, [](auto& r) -> int64_t { return r.stats.specialized_branches; }},
    {"seed_tuples_pruned", QueryLine::kResult, "seed tuple(s) pruned", true,
     "query.seed_tuples_pruned",
     [](auto& r) -> int64_t { return r.stats.seed_tuples_pruned; }},
    {"outer_tuples", QueryLine::kResult, nullptr, false, nullptr,
     [](auto& r) -> int64_t { return r.stats.outer_tuples; }},
    {"index_builds", QueryLine::kResult, nullptr, false, nullptr,
     [](auto& r) -> int64_t { return r.stats.index_builds; }},
    {"index_probes", QueryLine::kResult, nullptr, false, nullptr,
     [](auto& r) -> int64_t { return r.stats.index_probes; }},
    {"snapshot_materializations", QueryLine::kResult, nullptr, false, nullptr,
     [](auto& r) -> int64_t { return r.stats.snapshot_materializations; }},
    {"chunks_dispatched", QueryLine::kResult, nullptr, false, nullptr,
     [](auto& r) -> int64_t { return r.stats.chunks_dispatched; }},
    {"cache_hits", QueryLine::kCache, "hit(s)", false, "cache.hits",
     [](auto& r) -> int64_t { return r.cache.hits; }},
    {"cache_misses", QueryLine::kCache, "miss(es)", false, "cache.misses",
     [](auto& r) -> int64_t { return r.cache.misses; }},
    {"cache_invalidations", QueryLine::kCache, nullptr, false,
     "cache.invalidations",
     [](auto& r) -> int64_t { return r.cache.invalidations; }},
    {"cache_delta_maintained", QueryLine::kCache, "delta-maintained", true,
     "cache.delta_maintained",
     [](auto& r) -> int64_t { return r.cache.delta_maintained; }},
    {"cache_evictions", QueryLine::kCache, nullptr, false, nullptr,
     [](auto& r) -> int64_t { return r.cache.evictions; }},
    {"peak_delta", QueryLine::kResources, nullptr, false, nullptr,
     [](auto& r) -> int64_t { return r.usage.peak_delta_tuples; }},
    {"materialized", QueryLine::kResources, nullptr, false, nullptr,
     [](auto& r) -> int64_t { return r.usage.tuples_materialized; }},
    {"approx_bytes", QueryLine::kResources, nullptr, false, nullptr,
     [](auto& r) -> int64_t { return r.usage.approx_bytes; }},
};

}  // namespace

constexpr std::span<const QueryField> kQueryFields(kTable);

std::string FormatQueryLines(const QueryRecord& record,
                             std::initializer_list<QueryLine> lines) {
  std::string out;
  for (QueryLine line : lines) {
    if (!out.empty()) out += '\n';
    const size_t start = out.size();
    if (line == QueryLine::kOutcome) out.append("plan=").append(record.plan);
    for (const QueryField& f : kQueryFields) {
      if (f.line != line) continue;
      if (out.size() > start) out += ' ';
      out.append(f.key).append("=").append(std::to_string(f.get(record)));
    }
  }
  return out;
}

std::vector<EventField> QueryEventFields(const QueryRecord& record) {
  std::vector<EventField> fields = {EventField::Str("plan", record.plan)};
  for (const QueryField& f : kQueryFields) {
    fields.push_back(EventField::Int(f.key, f.get(record)));
  }
  return fields;
}

std::string ExplainAnalyzeLines(const QueryRecord& record) {
  std::string out;
  for (QueryLine line : {QueryLine::kResult, QueryLine::kCache}) {
    std::string prose;
    bool consulted = false;
    for (const QueryField& f : kQueryFields) {
      if (f.line != line || f.phrase == nullptr) continue;
      int64_t value = f.get(record);
      consulted |= value != 0;
      if (f.phrase_if_nonzero && value == 0) continue;
      if (!prose.empty()) prose += ", ";
      prose.append(std::to_string(value)).append(" ").append(f.phrase);
    }
    // Queries that never consulted the materialization cache get no cache
    // line (plain-range queries, PRAGMA CACHE = OFF).
    if (line == QueryLine::kCache && !consulted) continue;
    out.append(line == QueryLine::kResult ? "result: " : "cache: ");
    out.append(prose).append("\n");
  }
  out.append("resources: ");
  out.append(FormatQueryLines(record, {QueryLine::kResources}));
  return out.append("\n");
}

QueryMetrics::QueryMetrics(MetricsRegistry* registry) {
  for (const QueryField& f : kQueryFields) {
    if (f.metric == nullptr) continue;
    const bool counter = f.line == QueryLine::kCache;
    feeds_.push_back({&f, counter ? nullptr : registry->GetHistogram(f.metric),
                      counter ? registry->GetCounter(f.metric) : nullptr});
  }
}

void QueryMetrics::Record(const QueryRecord& record) const {
  for (const Feed& feed : feeds_) {
    const int64_t value = feed.field->get(record);
    if (feed.counter != nullptr) {
      feed.counter->Add(value);
    } else {
      feed.histogram->Record(value);
    }
  }
}

}  // namespace datacon
