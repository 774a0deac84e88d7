#ifndef DATACON_STORAGE_INDEX_H_
#define DATACON_STORAGE_INDEX_H_

#include <unordered_map>
#include <vector>

#include "storage/relation.h"
#include "storage/tuple.h"

namespace datacon {

/// A hash index over a relation: maps the projection of each stored tuple
/// onto `columns` to the list of matching tuples.
///
/// Indexes are owned by the relation they index: Relation::IndexOn builds
/// one on first use and keeps it until the relation changes, so the join
/// machinery, the magic-set closure and materialized physical access paths
/// (section 4) probe one index per relation version instead of rebuilding
/// it per use. The index holds pointers into the indexed relation's tuple
/// set; tuples inserted after construction are not indexed — a probe would
/// silently miss them — so InSync() lets callers detect the
/// grown-after-build hazard instead of miscomputing. `rel` must outlive the
/// index (the owning relation frees it on Erase, Clear and assignment).
class HashIndex {
 public:
  /// Builds an index of `rel` on the given column positions.
  HashIndex(const Relation& rel, std::vector<int> columns);

  /// The column positions this index covers.
  const std::vector<int>& columns() const { return columns_; }

  /// All indexed tuples whose projection equals `key` (empty if none).
  const std::vector<const Tuple*>& Probe(const Tuple& key) const;

  /// Number of distinct keys.
  size_t key_count() const { return buckets_.size(); }

  /// Tuples the indexed relation held when the index was built.
  size_t size_at_build() const { return size_at_build_; }

  /// True while the indexed relation still has exactly the tuples that were
  /// indexed, keyed on Relation::generation() — any mutation since the
  /// build (including an insert+erase pair of equal cardinality, which a
  /// size comparison cannot see) desynchronizes the index. Probing a
  /// desynchronized index returns stale results and must be treated as an
  /// error by the caller.
  bool InSync() const;

 private:
  const Relation* rel_;
  size_t size_at_build_;
  uint64_t generation_at_build_;
  std::vector<int> columns_;
  std::unordered_map<Tuple, std::vector<const Tuple*>, TupleHash> buckets_;
  std::vector<const Tuple*> empty_;
};

}  // namespace datacon

#endif  // DATACON_STORAGE_INDEX_H_
