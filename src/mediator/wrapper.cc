#include "mediator/wrapper.h"

#include "expr/condition_parser.h"
#include "expr/simplify.h"
#include "plan/plan_validator.h"

namespace gencompact {

Wrapper::Wrapper(SourceDescription description, const Table* table,
                 GenCompactOptions options)
    : handle_(std::move(description), table),
      source_(table, &handle_.description()),
      options_(options) {
  // The wrapper's contract is exact relational answers.
  options_.ipg.safe_combination = true;
}

Result<RowSet> Wrapper::Query(const ConditionPtr& condition,
                              const AttributeSet& attrs) {
  ++stats_.queries;

  const ConditionPtr simplified = SimplifyCondition(condition);
  if (simplified == nullptr) {
    // Unsatisfiable: answer locally.
    ++stats_.answered;
    ++stats_.answered_without_source;
    return RowSet(RowLayout(attrs, schema().num_attributes()));
  }

  GenCompactPlanner planner(&handle_, options_);
  Result<PlanPtr> plan = planner.Plan(simplified, attrs);
  if (!plan.ok()) {
    ++stats_.infeasible;
    return plan.status();
  }
  GC_RETURN_IF_ERROR(ValidatePlanFor(**plan, attrs, handle_.checker()));

  Executor executor(&source_);
  GC_ASSIGN_OR_RETURN(RowSet rows, executor.Execute(**plan));
  ++stats_.answered;
  stats_.source_queries += executor.stats().source_queries;
  stats_.rows_transferred += executor.stats().rows_transferred;
  return rows;
}

Result<RowSet> Wrapper::Query(const std::string& condition_text,
                              const std::vector<std::string>& attr_names) {
  GC_ASSIGN_OR_RETURN(const ConditionPtr condition,
                      ParseCondition(condition_text));
  AttributeSet attrs;
  if (attr_names.empty()) {
    attrs = schema().AllAttributes();
  } else {
    GC_ASSIGN_OR_RETURN(attrs, schema().MakeSet(attr_names));
  }
  return Query(condition, attrs);
}

}  // namespace gencompact
