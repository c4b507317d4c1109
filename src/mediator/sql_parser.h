#ifndef GENCOMPACT_MEDIATOR_SQL_PARSER_H_
#define GENCOMPACT_MEDIATOR_SQL_PARSER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "expr/condition.h"

namespace gencompact {

/// A parsed target query (always of the paper's SP form π_A(σ_C(R))).
struct ParsedQuery {
  std::vector<std::string> select_list;  ///< empty means SELECT *
  std::string source;
  ConditionPtr condition;  ///< ConditionNode::True() when no WHERE clause
};

/// Parses the mini-SQL surface syntax of target queries:
///
///   SELECT a, b FROM src WHERE cond
///   SELECT * FROM src
///
/// Keywords are case-insensitive; `cond` uses the condition grammar of
/// ParseCondition (and/or, parentheses, =, !=, <, <=, >, >=, contains,
/// startswith, `attr in {v1, v2}`).
Result<ParsedQuery> ParseSql(std::string_view sql);

/// True if the FROM clause contains a JOIN (dispatch helper).
bool IsJoinQuery(std::string_view sql);

/// A join query over two or more sources, as a query graph: the FROM clause
/// chains JOINs, and every ON term contributes one equi-join edge key pair.
struct ParsedFederatedQuery {
  std::vector<std::string> select_list;  ///< qualified; empty means *
  std::vector<std::string> sources;      ///< FROM order; at least 2, distinct
  /// Equi-join key pairs from every ON clause (each side qualified).
  std::vector<std::pair<std::string, std::string>> keys;
  ConditionPtr condition;  ///< qualified; True when no WHERE clause
};

/// Parses
///
///   SELECT ... FROM s0 JOIN s1 ON s0.k = s1.k [and ...]
///     [JOIN s2 ON sX.k = s2.k [and ...]]...
///     [WHERE cond-over-qualified-attrs]
///
/// Every JOIN must carry its own ON clause; key-pair sides must be
/// source-qualified. Which relations each pair connects is resolved by the
/// federation processor against the catalog.
Result<ParsedFederatedQuery> ParseFederatedSql(std::string_view sql);

}  // namespace gencompact

#endif  // GENCOMPACT_MEDIATOR_SQL_PARSER_H_
