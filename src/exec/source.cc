#include "exec/source.h"

#include <algorithm>
#include <thread>
#include <vector>

#include "exec/scan.h"

namespace gencompact {

Result<RowSet> Source::Execute(const ConditionNode& cond,
                               const AttributeSet& attrs) {
  // Offset 0 of the paged protocol IS the plain call; a bounded source
  // silently truncates here (info is dropped), like a real top-k form
  // answering a caller that never looks at the "more results" banner. The
  // executor's paging loop is the caller that does look.
  PageInfo info;
  return ExecutePage(cond, attrs, PageRequest{}, &info);
}

Result<RowSet> Source::ExecutePage(const ConditionNode& cond,
                                   const AttributeSet& attrs,
                                   const PageRequest& request, PageInfo* info) {
  const SourceCall call = BeginCall(cond, attrs, request);
  // The round trip happens with no lock held: concurrent queries wait in
  // parallel, exactly like independent HTTP requests.
  if (call.delay.count() > 0) std::this_thread::sleep_for(call.delay);
  return FinishCall(cond, attrs, request, call, info);
}

Source::SourceCall Source::BeginCall(const ConditionNode& cond,
                                     const AttributeSet& attrs,
                                     const PageRequest& request) {
  queries_received_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t now =
      inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
  uint64_t peak = peak_inflight_.load(std::memory_order_relaxed);
  while (now > peak && !peak_inflight_.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }

  SourceCall call;
  std::chrono::microseconds latency = simulated_latency();

  // Fault injection happens before the capability check: a dead or flaky
  // network fails the round trip whether or not the form could have answered.
  if (fault_injector_ != nullptr) {
    const FaultInjector::Decision decision =
        fault_injector_->NextCall(request.offset, request.fingerprint);
    latency += decision.extra_latency;
    if (decision.code != StatusCode::kOk) {
      queries_unavailable_.fetch_add(1, std::memory_order_relaxed);
      call.fail_code = decision.code;
      call.fail_reason = decision.reason;
      // A stuck call burns its timeout before failing; a fast failure does
      // not wait at all (extra_latency is zero for those).
      if (decision.extra_latency.count() > 0) call.delay = latency;
      return call;
    }
  }

  // The capability check needs no Source-level lock: the Checker memo is
  // internally synchronized (shared-lock reads, PR 2), so concurrent checks
  // against one source no longer serialize here.
  if (!checker_.Supports(cond, attrs)) {
    queries_rejected_.fetch_add(1, std::memory_order_relaxed);
    call.rejected = true;
    return call;
  }

  const ResultBound& bound = description_->result_bound();
  if (request.offset > 0 && (!bound.bounded() || !bound.supports_paging)) {
    // A form with no "next page" link: there is nothing to request past
    // offset 0. Non-retryable, like any other interface violation.
    queries_rejected_.fetch_add(1, std::memory_order_relaxed);
    call.paging_rejected = true;
    return call;
  }

  call.delay = latency;
  return call;
}

Result<RowSet> Source::FinishCall(const ConditionNode& cond,
                                  const AttributeSet& attrs,
                                  const PageRequest& request,
                                  const SourceCall& call, PageInfo* info) {
  inflight_.fetch_sub(1, std::memory_order_relaxed);

  if (call.fail_code != StatusCode::kOk) {
    const std::string message = "source '" + description_->source_name() +
                                "' " + call.fail_reason + " on SP(" +
                                cond.ToString() + ")";
    return call.fail_code == StatusCode::kDeadlineExceeded
               ? Status::DeadlineExceeded(message)
               : Status::Unavailable(message);
  }
  if (call.rejected) {
    return Status::Unsupported("source '" + description_->source_name() +
                               "' rejects query: SP(" + cond.ToString() +
                               ", " + attrs.ToString(table_->schema()) + ")");
  }
  if (call.paging_rejected) {
    return Status::Unsupported("source '" + description_->source_name() +
                               "' does not support paging (offset " +
                               std::to_string(request.offset) + ")");
  }

  // The scan itself (exec/scan.h): filter, hash and deduplicate on the
  // table's column mirror, then build only the distinct matching rows.
  GC_ASSIGN_OR_RETURN(RowSet result, ScanTable(*table_, cond, attrs));
  queries_answered_.fetch_add(1, std::memory_order_relaxed);

  const ResultBound& bound = description_->result_bound();
  if (!bound.bounded()) {
    info->bounded = false;
    info->rows = result.size();
    info->next_offset = result.size();
    info->has_more = false;
    rows_returned_.fetch_add(result.size(), std::memory_order_relaxed);
    return result;
  }

  // Bounded response: ship the page [offset, offset + page_size) of the
  // answer in canonical (Value-lexicographic) order. The order is a pure
  // function of the immutable table and the condition, so a retried page
  // request resumes at exactly the rows the failed attempt would have
  // shipped — no duplicates, no gaps.
  const uint64_t page_size = bound.EffectivePageSize();
  const std::vector<Row> sorted = result.SortedRows();
  const uint64_t total = sorted.size();
  const uint64_t begin = std::min<uint64_t>(request.offset, total);
  const uint64_t end = std::min<uint64_t>(begin + page_size, total);
  RowSet page(result.layout());
  for (uint64_t i = begin; i < end; ++i) page.Insert(sorted[i]);

  info->bounded = true;
  info->rows = end - begin;
  info->next_offset = end;
  info->has_more = end < total;
  pages_served_.fetch_add(1, std::memory_order_relaxed);
  if (info->has_more) {
    truncated_responses_.fetch_add(1, std::memory_order_relaxed);
  }
  rows_returned_.fetch_add(page.size(), std::memory_order_relaxed);
  return page;
}

}  // namespace gencompact
