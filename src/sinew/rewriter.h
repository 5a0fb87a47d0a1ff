// Query rewriter (paper Section 3.2.2).
//
// Takes standard SQL over the logical universal-relation schema and rewrites
// it to match the hybrid physical schema:
//   - references to clean physical columns pass through;
//   - references to dirty physical columns become
//     COALESCE(col, sinew_extract_T(_data, 'col'));
//   - references to virtual columns become sinew_extract_T(_data, 'col'),
//     where T is inferred from type constraints in the query (comparisons
//     against literals, arithmetic, LIKE, ...) and falls back to the untyped
//     extractor for projections;
//   - references under a materialized nested object extract from that
//     object's serialized column instead of the whole reservoir;
//   - SELECT * expands to the table's top-level logical columns;
//   - matches(keys, 'query') resolves against the table's inverted text
//     index at rewrite time and becomes `__rid IN (...)` (Section 4.3);
//   - UPDATE ... SET over virtual columns folds into functional updates of
//     the reservoir via sinew_reservoir_set/remove.

#ifndef SINEW_SINEW_REWRITER_H_
#define SINEW_SINEW_REWRITER_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "engine/database.h"
#include "sinew/catalog.h"
#include "textindex/inverted_index.h"

namespace sinew {

using TextIndexMap =
    std::map<std::string, std::unique_ptr<textindex::InvertedIndex>>;

class QueryRewriter {
 public:
  QueryRewriter(engine::Database* db, AttributeCatalog* catalog,
                const TextIndexMap* indexes)
      : db_(db), catalog_(catalog), indexes_(indexes) {}

  /// Parses `sql` and rewrites it in place against the physical schema.
  Result<engine::Statement> Rewrite(std::string_view sql) const;

  /// Rewrites an already-parsed statement in place: Rewrite() without the
  /// parse, so callers can time the two phases apart.
  Status RewriteStatement(engine::Statement* stmt) const;

  Status RewriteSelect(engine::SelectStatement* stmt) const;
  Status RewriteUpdate(engine::UpdateStatement* stmt) const;
  Status RewriteDelete(engine::DeleteStatement* stmt) const;

 private:
  class Impl;

  engine::Database* db_;
  AttributeCatalog* catalog_;
  const TextIndexMap* indexes_;
};

}  // namespace sinew

#endif  // SINEW_SINEW_REWRITER_H_
