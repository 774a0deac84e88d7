#include "core/matcache.h"

#include <algorithm>
#include <utility>

#include "core/positivity.h"

namespace datacon {

void ScanRangeInputs(const Range& range, const Catalog& catalog, int parity,
                     InputScan* scan) {
  std::set<std::string> visited_selectors;
  // Iterative worklist over (range, parity) pairs so selector predicates
  // nesting further ranges cannot recurse unboundedly.
  struct Item {
    const Range* range;
    int parity;
  };
  // Every queued Range is owned by the caller's AST or by a catalog-owned
  // selector declaration, both of which outlive the scan.
  std::vector<Item> work{{&range, parity}};
  while (!work.empty() && scan->ok) {
    Item item = work.back();
    work.pop_back();
    if (item.parity % 2 != 0) scan->maintainable = false;
    // A fully substituted range's base is a catalog relation; an unknown
    // name is a formal (the range was lifted out of an unapplied selector
    // body) and the dependency cannot be pinned by name+generation.
    if (!catalog.LookupRelation(item.range->relation()).ok()) {
      scan->ok = false;
      return;
    }
    scan->inputs.insert(item.range->relation());
    for (const RangeApp& app : item.range->apps()) {
      if (app.kind == RangeApp::Kind::kConstructor) {
        // The constructor application itself is an ApplicationGraph node
        // (covered by the component's reachable-node closure); only its
        // relation-valued arguments add base inputs.
        for (const RangePtr& arg : app.range_args) {
          work.push_back({arg.get(), item.parity});
        }
        continue;
      }
      Result<const SelectorDecl*> sel = catalog.LookupSelector(app.name);
      if (!sel.ok()) {
        scan->ok = false;
        return;
      }
      if (!visited_selectors.insert(app.name).second) continue;
      // Ranges inside an applied selector's predicate are further inputs;
      // their presence also means an insert into those inputs can shrink
      // the selected set, so delta maintenance is off the table.
      ForEachRangeWithParity(*sel.value()->pred(), item.parity,
                             [&](const Range& r, int p) {
                               scan->maintainable = false;
                               work.push_back({&r, p});
                             });
    }
  }
}

Result<std::vector<CacheInput>> SnapshotCacheInputs(
    const std::set<std::string>& names, const Catalog& catalog) {
  std::vector<CacheInput> out;
  out.reserve(names.size());
  for (const std::string& name : names) {
    DATACON_ASSIGN_OR_RETURN(const Relation* rel,
                             catalog.LookupRelation(name));
    out.push_back(CacheInput{name, rel->generation()});
  }
  return out;
}

MatCacheStats operator-(const MatCacheStats& a, const MatCacheStats& b) {
  MatCacheStats out;
  out.hits = a.hits - b.hits;
  out.misses = a.misses - b.misses;
  out.invalidations = a.invalidations - b.invalidations;
  out.delta_maintained = a.delta_maintained - b.delta_maintained;
  out.evictions = a.evictions - b.evictions;
  return out;
}

MatCache::MatCache(size_t capacity, EventLog* events)
    : capacity_(capacity), events_(events) {}

CacheLookup MatCache::Lookup(const std::string& key, const Catalog& catalog) {
  std::lock_guard<std::mutex> lock(mu_);
  CacheLookup result;
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return result;
  }
  Entry& entry = it->second;
  std::vector<CacheInputDelta> deltas;
  bool invalid = false;
  bool changed = false;
  for (const CacheInput& input : entry.inputs) {
    Result<const Relation*> rel = catalog.LookupRelation(input.relation);
    if (!rel.ok()) {
      invalid = true;
      break;
    }
    if (rel.value()->generation() == input.generation) continue;
    changed = true;
    if (!entry.maintainable) {
      invalid = true;
      break;
    }
    std::optional<std::vector<Tuple>> inserted =
        rel.value()->InsertedSince(input.generation);
    if (!inserted.has_value()) {
      // Erase/Clear churn or log overflow: the delta is gone for good.
      invalid = true;
      break;
    }
    deltas.push_back(CacheInputDelta{input.relation, *std::move(inserted)});
  }
  if (invalid) {
    entries_.erase(it);
    ++stats_.invalidations;
    ++stats_.misses;
    if (events_ != nullptr && events_->enabled()) {
      events_->Emit("cache.invalidate", {EventField::Str("key", key)});
    }
    return result;
  }
  if (!changed) {
    Touch(&entry);
    ++stats_.hits;
    if (events_ != nullptr && events_->enabled()) {
      events_->Emit("cache.hit", {EventField::Str("key", key)});
    }
    result.outcome = CacheOutcome::kHit;
    result.members = entry.members;
    result.stats = entry.stats;
    return result;
  }
  // Delta hit: hand the caller everything it needs to maintain; counters
  // settle via NoteMaintained / InvalidateAfterFailure. A member no one but
  // the entry references is handed over outright, so maintenance can grow
  // it in place instead of copying; the entry's slot stays empty until the
  // settlement refills or drops it.
  Touch(&entry);
  result.outcome = CacheOutcome::kDeltaHit;
  result.members = entry.members;
  for (CachedRelation& member : entry.members) {
    // Two references: the entry's and the copy in `result`.
    if (member.relation.use_count() == 2) member.relation.reset();
  }
  result.deltas = std::move(deltas);
  result.stats = entry.stats;
  return result;
}

void MatCache::Insert(const std::string& key,
                      std::vector<CachedRelation> members,
                      std::vector<CacheInput> inputs, EvalStats stats,
                      bool maintainable) {
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_ == 0) return;
  Entry& entry = entries_[key];
  entry.members = std::move(members);
  entry.inputs = std::move(inputs);
  entry.stats = stats;
  entry.maintainable = maintainable;
  Touch(&entry);
  EvictOverCapacity();
}

void MatCache::NoteMaintained(const std::string& key,
                              std::vector<CachedRelation> members,
                              std::vector<CacheInput> inputs,
                              EvalStats stats) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.delta_maintained;
  if (events_ != nullptr && events_->enabled()) {
    events_->Emit("cache.delta", {EventField::Str("key", key)});
  }
  auto it = entries_.find(key);
  if (it == entries_.end()) return;  // evicted concurrently with maintenance
  Entry& entry = it->second;
  entry.members = std::move(members);
  entry.inputs = std::move(inputs);
  entry.stats = stats;
  Touch(&entry);
}

void MatCache::InvalidateAfterFailure(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.erase(key);
  ++stats_.invalidations;
  ++stats_.misses;
  if (events_ != nullptr && events_->enabled()) {
    events_->Emit("cache.invalidate", {EventField::Str("key", key)});
  }
}

void MatCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

void MatCache::set_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
  EvictOverCapacity();
}

void MatCache::EvictOverCapacity() {
  while (entries_.size() > capacity_) {
    auto lru = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.last_used < lru->second.last_used) lru = it;
    }
    entries_.erase(lru);
    ++stats_.evictions;
  }
}

}  // namespace datacon
