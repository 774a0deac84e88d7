#ifndef DATACON_CORE_MATCACHE_H_
#define DATACON_CORE_MATCACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "ast/range.h"
#include "common/eventlog.h"
#include "common/thread_annotations.h"
#include "common/result.h"
#include "core/catalog.h"
#include "core/fixpoint.h"
#include "storage/relation.h"
#include "storage/tuple.h"

namespace datacon {

/// One materialized application relation of a cached component, identified
/// by its ApplicationGraph node key (the canonical printed application
/// range). The relation is shared immutably: the evaluator installs it
/// without copying and never mutates a relation someone else references —
/// delta maintenance grows a member in place only after a kDeltaHit handed
/// over the sole reference, and copies it otherwise.
struct CachedRelation {
  std::string node_key;
  std::shared_ptr<const Relation> relation;
};

/// One base-relation input of a cached component, pinned at the generation
/// it had when the entry was materialized.
struct CacheInput {
  std::string relation;
  uint64_t generation = 0;
};

/// The tuples inserted into one input relation since the entry was
/// materialized — the seed of delta maintenance.
struct CacheInputDelta {
  std::string relation;
  std::vector<Tuple> inserted;
};

enum class CacheOutcome {
  /// Every input generation unchanged: the cached members are the answer.
  kHit,
  /// Input generations advanced by reconstructible inserts only and the
  /// entry is maintainable: re-seed semi-naive from `deltas`.
  kDeltaHit,
  /// No entry, or the entry was invalidated (erase/clear churn, log
  /// overflow, non-maintainable entry behind changed inputs).
  kMiss,
};

/// The result of a cache lookup. On kHit/kDeltaHit, `members` and `stats`
/// carry the entry's materializations and its recorded EvalStats
/// contribution (replayed on a hit so repeat queries report the same
/// logical counters as the cold run that filled the entry). On kDeltaHit,
/// a member the entry alone referenced has been moved out of the entry:
/// `members` then holds its only reference.
struct CacheLookup {
  CacheOutcome outcome = CacheOutcome::kMiss;
  std::vector<CachedRelation> members;
  std::vector<CacheInputDelta> deltas;
  EvalStats stats;
};

/// Counters of one MatCache. The owning database projects each query's
/// deltas into its MetricsRegistry (cache.hits / cache.misses /
/// cache.invalidations / cache.delta_maintained, see core/query_record.h).
struct MatCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t invalidations = 0;
  int64_t delta_maintained = 0;
  int64_t evictions = 0;
};

/// Field-wise difference: the counters an interval added, given snapshots
/// at its end (`a`) and start (`b`).
MatCacheStats operator-(const MatCacheStats& a, const MatCacheStats& b);

/// Scan state for collecting the base-relation inputs of ranges and bodies:
/// which catalog relations a cached result depends on, whether collection
/// succeeded at all, and whether insert-only delta maintenance would be
/// sound for those dependencies.
struct InputScan {
  std::set<std::string> inputs;
  /// False when a referenced name is unknown to the catalog (a formal of an
  /// unapplied selector body) — the dependency set is then not expressible
  /// as name+generation pairs and the result is uncacheable.
  bool ok = true;
  /// False when an input occurs at odd NOT/ALL parity or inside an applied
  /// selector's predicate: inserting into such an input can *remove*
  /// derived tuples, so only full hits are safe, never delta maintenance.
  bool maintainable = true;
};

/// Collects the catalog relations `range` reads: its base, constructor
/// argument ranges (recursively), and every range referenced by an applied
/// selector's predicate. `parity` is the NOT/ALL parity at which the range
/// occurs (see core/positivity.h).
void ScanRangeInputs(const Range& range, const Catalog& catalog, int parity,
                     InputScan* scan);

/// The current generations of `names`; fails when a name no longer resolves.
Result<std::vector<CacheInput>> SnapshotCacheInputs(
    const std::set<std::string>& names, const Catalog& catalog);

/// An LRU cache of materialized constructor applications, keyed by a
/// component key (sorted member node keys, plus the adornment/seed
/// signature for magic-specialized components) and validated on every
/// lookup against the *current* generations of the entry's input
/// relations:
///
///   unchanged generations            -> kHit   (reuse, zero evaluation)
///   advanced, inserts reconstructible,
///   entry maintainable               -> kDeltaHit (re-seed semi-naive)
///   anything else                    -> invalidate + kMiss (full recompute)
///
/// The cache is per-Database; evaluations are serialized per database, but
/// all entry/counter state is guarded by one mutex anyway so concurrent
/// observers (PRAGMA CACHE_CAPACITY from another session, stats scrapes)
/// are safe.
class MatCache {
 public:
  /// `events` (may be null; must outlive the cache) receives cache.hit /
  /// cache.delta / cache.invalidate events when enabled.
  explicit MatCache(size_t capacity = 64, EventLog* events = nullptr);

  /// Looks `key` up and classifies it against `catalog`'s current relation
  /// generations. Counts a hit or miss; a kDeltaHit counts nothing yet —
  /// the caller settles it with NoteMaintained (success) or
  /// InvalidateAfterFailure (degrade to full recompute, which also counts
  /// the recompute as a miss).
  CacheLookup Lookup(const std::string& key, const Catalog& catalog);

  /// Stores (or overwrites) an entry, evicting the least recently used
  /// entry when at capacity. `stats` is the component's EvalStats
  /// contribution, replayed verbatim on later hits. No-op at capacity 0.
  void Insert(const std::string& key, std::vector<CachedRelation> members,
              std::vector<CacheInput> inputs, EvalStats stats,
              bool maintainable);

  /// Settles a kDeltaHit whose maintenance succeeded: refreshes the entry
  /// and counts delta_maintained.
  void NoteMaintained(const std::string& key,
                      std::vector<CachedRelation> members,
                      std::vector<CacheInput> inputs, EvalStats stats);

  /// Settles a kDeltaHit whose maintenance failed: drops the entry and
  /// counts an invalidation plus the miss the caller now evaluates.
  void InvalidateAfterFailure(const std::string& key);

  /// Drops every entry (counters are kept).
  void Clear();

  /// Shrinks to the new capacity immediately (LRU order).
  void set_capacity(size_t capacity);
  size_t capacity() const {
    std::lock_guard<std::mutex> lock(mu_);
    return capacity_;
  }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

  /// Counter snapshot (by value — the counters keep moving).
  MatCacheStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  struct Entry {
    std::vector<CachedRelation> members;
    std::vector<CacheInput> inputs;
    EvalStats stats;
    bool maintainable = false;
    uint64_t last_used = 0;
  };

  void Touch(Entry* entry) DATACON_REQUIRES(mu_) {
    entry->last_used = ++tick_;
  }
  void EvictOverCapacity() DATACON_REQUIRES(mu_);

  mutable std::mutex mu_;
  size_t capacity_ DATACON_GUARDED_BY(mu_);
  uint64_t tick_ DATACON_GUARDED_BY(mu_) = 0;
  std::map<std::string, Entry> entries_ DATACON_GUARDED_BY(mu_);
  MatCacheStats stats_ DATACON_GUARDED_BY(mu_);
  /// Event sink (not owned; may be null).
  EventLog* events_;
};

}  // namespace datacon

#endif  // DATACON_CORE_MATCACHE_H_
