#ifndef DATACON_CORE_QUERY_RECORD_H_
#define DATACON_CORE_QUERY_RECORD_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/eventlog.h"
#include "common/metrics.h"
#include "core/fixpoint.h"
#include "core/matcache.h"

namespace datacon {

/// Everything one evaluation reports, as one plain value that allocates
/// nothing. Database fills it in a single wrapper around every evaluation;
/// every telemetry surface is a projection of it through kQueryFields, so
/// no two surfaces can disagree (DESIGN §4.17).
struct QueryRecord {
  int64_t eval_index = 0;  // 1-based; 0 before the first evaluation
  bool ok = false;
  int64_t elapsed_ns = 0;
  bool typed_proven = false;  // ran on the typed-proven fast path
  const char* plan = "none";  // level-3 plan: "general" / "seeded_closure"
  size_t result_tuples = 0;
  EvalStats stats;      // logical work, bit-identical at any thread count
  ResourceUsage usage;  // physical footprint
  MatCacheStats cache;  // the cache counters this query moved
};

/// A field's group: one line of the slow-log digest and, bar kOutcome, of
/// EXPLAIN ANALYZE.
enum class QueryLine { kOutcome, kResult, kCache, kResources };

/// One row of the field table.
struct QueryField {
  const char* key;  // in every key=value projection
  QueryLine line;
  const char* phrase;      // EXPLAIN ANALYZE result/cache prose, or null
  bool phrase_if_nonzero;  // prose omitted while the value is 0
  /// Registry instrument fed per query, or null: a counter for the cache
  /// rows (they are deltas of cumulative counts), else a histogram.
  const char* metric;
  int64_t (*get)(const QueryRecord&);
};

/// The field table: the only place the per-query counter list is spelled
/// out. Row order is output order on every surface.
extern const std::span<const QueryField> kQueryFields;

// Projections, each built only when its surface is live (slow-log
// admission, events on, `evaluate` span active).

/// One "k=v k=v" line per entry of `lines`, newline-separated; the outcome
/// line starts "plan=". The default, every line, is the slow-log digest.
std::string FormatQueryLines(
    const QueryRecord& record,
    std::initializer_list<QueryLine> lines = {
        QueryLine::kOutcome, QueryLine::kResult, QueryLine::kCache,
        QueryLine::kResources});

/// The query.finish event fields, which are also the `evaluate` span args:
/// plan, then every field.
std::vector<EventField> QueryEventFields(const QueryRecord& record);

/// EXPLAIN ANALYZE's "result: 6 tuple(s), 4 round(s), ...", "cache: ..."
/// (only when the query consulted the cache) and "resources: k=v ..."
/// lines.
std::string ExplainAnalyzeLines(const QueryRecord& record);

/// The registry instruments of the rows naming a metric, registered in
/// table order and fed once per query.
class QueryMetrics {
 public:
  explicit QueryMetrics(MetricsRegistry* registry);
  void Record(const QueryRecord& record) const;

 private:
  struct Feed {
    const QueryField* field;
    Histogram* histogram;  // null for a counter row
    Counter* counter;
  };
  std::vector<Feed> feeds_;
};

}  // namespace datacon

#endif  // DATACON_CORE_QUERY_RECORD_H_
