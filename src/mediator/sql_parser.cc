#include "mediator/sql_parser.h"

#include <cctype>

#include "common/strings.h"
#include "expr/condition_parser.h"

namespace gencompact {

namespace {

// Case-insensitive keyword search at word boundaries, outside quotes.
size_t FindKeyword(std::string_view text, std::string_view keyword,
                   size_t from = 0) {
  const std::string lower = ToLower(text);
  const std::string needle = ToLower(keyword);
  size_t pos = from;
  bool in_quotes = false;
  for (size_t i = 0; i < lower.size(); ++i) {
    if (lower[i] == '"') in_quotes = !in_quotes;
    if (in_quotes || i < pos) continue;
    if (lower.compare(i, needle.size(), needle) != 0) continue;
    const bool left_ok =
        i == 0 || !std::isalnum(static_cast<unsigned char>(lower[i - 1]));
    const size_t end = i + needle.size();
    const bool right_ok =
        end >= lower.size() ||
        !std::isalnum(static_cast<unsigned char>(lower[end]));
    if (left_ok && right_ok) return i;
  }
  return std::string_view::npos;
}

// Splits an ON-clause body into "l = r" key pairs on the `and` keyword.
Result<std::vector<std::pair<std::string, std::string>>> ParseOnPairs(
    const std::string& on_body) {
  std::vector<std::string> terms;
  size_t start = 0;
  while (true) {
    const size_t and_pos = FindKeyword(on_body, "and", start);
    if (and_pos == std::string_view::npos) {
      terms.push_back(
          std::string(StripWhitespace(std::string_view(on_body).substr(start))));
      break;
    }
    terms.push_back(std::string(StripWhitespace(
        std::string_view(on_body).substr(start, and_pos - start))));
    start = and_pos + 3;
  }
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const std::string& term : terms) {
    const std::vector<std::string> sides = Split(term, '=');
    if (sides.size() != 2) {
      return Status::InvalidArgument("ON clause term is not 'left = right': " +
                                     term);
    }
    pairs.emplace_back(std::string(StripWhitespace(sides[0])),
                       std::string(StripWhitespace(sides[1])));
  }
  if (pairs.empty()) {
    return Status::InvalidArgument("ON clause has no key pairs");
  }
  return pairs;
}

}  // namespace

Result<ParsedQuery> ParseSql(std::string_view sql) {
  const std::string_view trimmed = StripWhitespace(sql);
  const size_t select_pos = FindKeyword(trimmed, "select");
  if (select_pos != 0) {
    return Status::InvalidArgument("query must start with SELECT");
  }
  const size_t from_pos = FindKeyword(trimmed, "from");
  if (from_pos == std::string_view::npos) {
    return Status::InvalidArgument("query has no FROM clause");
  }
  const size_t where_pos = FindKeyword(trimmed, "where", from_pos);

  ParsedQuery query;

  // SELECT list.
  const std::string_view select_body =
      StripWhitespace(trimmed.substr(6, from_pos - 6));
  if (select_body.empty()) {
    return Status::InvalidArgument("empty SELECT list");
  }
  if (select_body != "*") {
    for (const std::string& item : Split(select_body, ',')) {
      const std::string_view name = StripWhitespace(item);
      if (name.empty()) {
        return Status::InvalidArgument("empty attribute in SELECT list");
      }
      query.select_list.emplace_back(name);
    }
  }

  // FROM source.
  const size_t from_end =
      where_pos == std::string_view::npos ? trimmed.size() : where_pos;
  const std::string_view source =
      StripWhitespace(trimmed.substr(from_pos + 4, from_end - from_pos - 4));
  if (source.empty()) {
    return Status::InvalidArgument("empty FROM clause");
  }
  query.source = std::string(source);

  // WHERE condition.
  if (where_pos == std::string_view::npos) {
    query.condition = ConditionNode::True();
  } else {
    GC_ASSIGN_OR_RETURN(query.condition,
                        ParseCondition(trimmed.substr(where_pos + 5)));
  }
  return query;
}

bool IsJoinQuery(std::string_view sql) {
  const size_t from_pos = FindKeyword(sql, "from");
  if (from_pos == std::string_view::npos) return false;
  return FindKeyword(sql, "join", from_pos) != std::string_view::npos;
}

Result<ParsedFederatedQuery> ParseFederatedSql(std::string_view sql) {
  const std::string_view trimmed = StripWhitespace(sql);
  if (FindKeyword(trimmed, "select") != 0) {
    return Status::InvalidArgument("query must start with SELECT");
  }
  const size_t from_pos = FindKeyword(trimmed, "from");
  if (from_pos == std::string_view::npos) {
    return Status::InvalidArgument("query has no FROM clause");
  }
  const size_t where_pos = FindKeyword(trimmed, "where", from_pos);
  const size_t from_end =
      where_pos == std::string_view::npos ? trimmed.size() : where_pos;

  ParsedFederatedQuery query;

  const std::string_view select_body =
      StripWhitespace(trimmed.substr(6, from_pos - 6));
  if (select_body.empty()) {
    return Status::InvalidArgument("empty SELECT list");
  }
  if (select_body != "*") {
    for (const std::string& item : Split(select_body, ',')) {
      const std::string_view name = StripWhitespace(item);
      if (name.empty()) {
        return Status::InvalidArgument("empty attribute in SELECT list");
      }
      query.select_list.emplace_back(name);
    }
  }

  // FROM s0 JOIN s1 ON ... JOIN s2 ON ...: walk the JOIN chain. Each JOIN
  // names one more source; each ON body runs until the next JOIN (or the
  // end of the FROM clause).
  const size_t first_join = FindKeyword(trimmed, "join", from_pos);
  if (first_join == std::string_view::npos || first_join >= from_end) {
    return Status::InvalidArgument("federated query needs FROM ... JOIN ...");
  }
  query.sources.emplace_back(StripWhitespace(
      trimmed.substr(from_pos + 4, first_join - from_pos - 4)));
  if (query.sources.back().empty()) {
    return Status::InvalidArgument("federated query has an empty source name");
  }

  size_t join_pos = first_join;
  while (join_pos != std::string_view::npos && join_pos < from_end) {
    const size_t on_pos = FindKeyword(trimmed, "on", join_pos);
    if (on_pos == std::string_view::npos || on_pos >= from_end) {
      return Status::InvalidArgument("every JOIN needs an ON clause");
    }
    query.sources.emplace_back(
        StripWhitespace(trimmed.substr(join_pos + 4, on_pos - join_pos - 4)));
    if (query.sources.back().empty()) {
      return Status::InvalidArgument(
          "federated query has an empty source name");
    }
    size_t next_join = FindKeyword(trimmed, "join", on_pos);
    const size_t on_end = next_join == std::string_view::npos ||
                                  next_join >= from_end
                              ? from_end
                              : next_join;
    const std::string on_body(
        StripWhitespace(trimmed.substr(on_pos + 2, on_end - on_pos - 2)));
    GC_ASSIGN_OR_RETURN(const auto pairs, ParseOnPairs(on_body));
    query.keys.insert(query.keys.end(), pairs.begin(), pairs.end());
    join_pos = next_join != std::string_view::npos && next_join < from_end
                   ? next_join
                   : std::string_view::npos;
  }

  for (size_t i = 0; i < query.sources.size(); ++i) {
    for (size_t j = i + 1; j < query.sources.size(); ++j) {
      if (query.sources[i] == query.sources[j]) {
        return Status::InvalidArgument("source '" + query.sources[i] +
                                       "' appears twice in the FROM clause "
                                       "(self-joins are not supported)");
      }
    }
  }

  if (where_pos == std::string_view::npos) {
    query.condition = ConditionNode::True();
  } else {
    GC_ASSIGN_OR_RETURN(query.condition,
                        ParseCondition(trimmed.substr(where_pos + 5)));
  }
  return query;
}

}  // namespace gencompact
