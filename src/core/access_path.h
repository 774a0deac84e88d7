#ifndef DATACON_CORE_ACCESS_PATH_H_
#define DATACON_CORE_ACCESS_PATH_H_

#include <memory>
#include <string>

#include "ast/branch.h"
#include "common/result.h"
#include "core/database.h"
#include "storage/relation.h"

namespace datacon {

/// The paper's *physical access path* (section 4): for a heavily used
/// parameterized query form, "actually materialize a relation
/// corresponding to the query with the constants used as variables, and
/// partition it according to the different constant values".
///
/// Build() strips the parameter-binding conjunct from the form, evaluates
/// the unrestricted query once (the expensive part — "generated only in
/// case of heavy query usage"), and hash-partitions the result on the
/// bound attribute. Execute() then answers any instantiation with a probe.
///
/// The access path is a snapshot: updates to the underlying base relations
/// do not propagate (incremental maintenance is the paper's [ShTZ 84]
/// pointer and out of scope here) — rebuild after updates.
class PhysicalAccessPath {
 public:
  /// `form` must be a single-branch query whose predicate conjoins
  /// `<var>.<field> = <param>` for exactly one field; `param` names the
  /// placeholder. Fails with kUnsupported when the shape does not match.
  static Result<PhysicalAccessPath> Build(Database* db, CalcExprPtr form,
                                          const std::string& param);

  /// All result tuples whose bound attribute equals `value`.
  Result<Relation> Execute(const Value& value) const;

  const Schema& result_schema() const { return schema_; }

  /// Size of the materialized (unrestricted) relation.
  size_t materialized_size() const { return materialized_->size(); }

 private:
  PhysicalAccessPath() = default;

  Schema schema_;
  /// Partitioned through its own index on probe_column_ (Relation::IndexOn),
  /// built in Build() so Execute() only probes.
  std::shared_ptr<Relation> materialized_;
  int probe_column_ = 0;
};

}  // namespace datacon

#endif  // DATACON_CORE_ACCESS_PATH_H_
