// Fault sweep: mediator throughput and answer quality as the source gets
// flakier.
//
// A Zipf-skewed feasible workload replays against one mediator while the
// source injects seeded transient faults at 0% / 5% / 20%, once with fault
// tolerance off (no retries: any injected fault kills its query, and no
// recovery re-plan runs) and once with the full discipline on (retries with
// decorrelated-jitter backoff, which also arm the avoid-set re-plan, plus a
// circuit breaker, which also arms load shedding and the k1 health penalty,
// plus partial answers). Reported per cell: queries/sec, success rate,
// partial answers, retries spent. Results are also emitted as
// BENCH_fault.json.
//
// Time runs on a FakeClock, so backoff sleeps cost nothing and the sweep is
// deterministic: the qps column isolates the *work* overhead of recovery
// (extra round trips), not sleep time.
//
// Expected shape: without tolerance the success rate tracks (1 - rate) per
// source call (compounding for multi-sub-query plans); with tolerance the
// success rate stays ~1.0 at every fault level, paid for with extra source
// calls per query.
//
// Gate: exits nonzero unless the tolerant success rate is >= 0.99 at every
// fault rate and, with no faults, both legs send the same number of source
// calls (the discipline costs nothing while the source is healthy).

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "mediator/mediator.h"
#include "workload/datasets.h"
#include "workload/random_capability.h"
#include "workload/random_condition.h"
#include "workload/zipf.h"

namespace gencompact::bench {
namespace {

constexpr size_t kSourceRows = 500;
constexpr size_t kDistinctQueries = 24;
constexpr size_t kQueries = 1500;
constexpr double kZipfSkew = 1.1;
constexpr uint64_t kSeed = 42;
constexpr double kTolerantSuccessFloor = 0.99;

Schema BenchSchema() {
  return Schema({{"s1", ValueType::kString},
                 {"s2", ValueType::kString},
                 {"s3", ValueType::kString},
                 {"n1", ValueType::kInt},
                 {"n2", ValueType::kInt}});
}

struct WorkItem {
  ConditionPtr condition;
  std::vector<std::string> attrs;
};

struct Cell {
  double fault_rate = 0;
  bool tolerant = false;
  size_t queries = 0;
  size_t ok = 0;
  size_t partial = 0;
  size_t failed = 0;
  uint64_t retries = 0;
  uint64_t source_calls = 0;
  double seconds = 0;
  double qps = 0;
  double success_rate = 0;
};

struct Environment {
  std::unique_ptr<Mediator> mediator;
  std::vector<WorkItem> workload;
  FakeClock* clock;  // owned by caller, outlives the mediator
};

Environment MakeEnvironment(bool tolerant, FakeClock* clock) {
  Environment env;
  env.clock = clock;
  Rng rng(kSeed);
  const Schema schema = BenchSchema();
  std::unique_ptr<Table> table =
      MakeRandomTable("src", schema, kSourceRows, 16, 100, &rng);
  RandomCapabilityOptions cap_options;
  cap_options.download_probability = 0.2;
  const SourceDescription description =
      RandomCapability("src", schema, cap_options, &rng);
  const std::vector<AttributeDomain> domains = ExtractDomains(*table, 6, &rng);

  Mediator::Options options;
  options.clock = clock;
  if (tolerant) {
    options.retry.max_attempts = 5;
    options.retry.backoff.base = std::chrono::microseconds(200);
    options.retry.backoff.cap = std::chrono::microseconds(2000);
    options.enable_circuit_breaker = true;
    options.breaker.failure_threshold = 10;
    options.breaker.open_duration = std::chrono::microseconds(5000);
    options.partial_results = true;
  }
  env.mediator = std::make_unique<Mediator>(options);
  if (!env.mediator->RegisterSource(description, std::move(table)).ok()) {
    return env;
  }

  // Feasible queries only, probed before any fault policy is installed.
  while (env.workload.size() < kDistinctQueries) {
    RandomConditionOptions cond_options;
    cond_options.num_atoms = 2 + rng.NextIndex(4);
    WorkItem item;
    item.condition = RandomCondition(domains, cond_options, &rng);
    item.attrs = {schema
                      .attribute(static_cast<int>(
                          rng.NextIndex(schema.num_attributes())))
                      .name};
    const Result<Mediator::QueryResult> probe = env.mediator->QueryCondition(
        "src", item.condition, item.attrs, Strategy::kGenCompact);
    if (!probe.ok()) continue;
    env.workload.push_back(std::move(item));
  }
  return env;
}

Cell RunCell(double fault_rate, bool tolerant) {
  FakeClock clock;
  Environment env = MakeEnvironment(tolerant, &clock);
  Cell cell;
  cell.fault_rate = fault_rate;
  cell.tolerant = tolerant;
  if (env.workload.empty()) return cell;

  {
    const Result<CatalogEntry*> entry = env.mediator->catalog()->Find("src");
    if (!entry.ok()) return cell;
    FaultPolicy policy;
    policy.seed = kSeed;
    policy.transient_error_rate = fault_rate;
    (*entry)->source()->set_fault_policy(policy);
  }

  const ZipfSampler zipf(env.workload.size(), kZipfSkew);
  // Same replay stream in every cell: tolerant and intolerant runs see the
  // identical query sequence, so columns are directly comparable.
  Rng replay_rng(kSeed * 31);
  const auto start = std::chrono::steady_clock::now();
  for (size_t q = 0; q < kQueries; ++q) {
    const WorkItem& item = env.workload[zipf.Sample(&replay_rng)];
    const Result<Mediator::QueryResult> result = env.mediator->QueryCondition(
        "src", item.condition, item.attrs, Strategy::kGenCompact);
    if (!result.ok()) {
      ++cell.failed;
    } else if (!result->completeness.complete) {
      ++cell.partial;
    } else {
      ++cell.ok;
    }
  }
  cell.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  cell.queries = kQueries;
  cell.qps = cell.seconds > 0
                 ? static_cast<double>(cell.queries) / cell.seconds
                 : 0;
  // Partial answers are answers: the query did not fail.
  cell.success_rate =
      static_cast<double>(cell.ok + cell.partial) / static_cast<double>(kQueries);

  const Mediator::Stats stats = env.mediator->StatsSnapshot();
  cell.retries = stats.fault_tolerance.retries;
  if (!stats.sources.empty()) {
    cell.source_calls = stats.sources[0].source.queries_received;
  }
  return cell;
}

void WriteJson(const std::vector<Cell>& cells, const char* path) {
  std::FILE* f = OpenBenchJson(path, "fault_sweep");
  if (f == nullptr) return;
  std::fprintf(f, "  \"queries_per_cell\": %zu,\n", kQueries);
  std::fprintf(f, "  \"distinct_queries\": %zu,\n", kDistinctQueries);
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(kSeed));
  std::fprintf(f, "  \"cells\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(f,
                 "    {\"fault_rate\": %.2f, \"tolerant\": %s, "
                 "\"queries\": %zu, \"ok\": %zu, \"partial\": %zu, "
                 "\"failed\": %zu, \"retries\": %llu, "
                 "\"source_calls\": %llu, \"qps\": %.1f, "
                 "\"success_rate\": %.4f}%s\n",
                 c.fault_rate, c.tolerant ? "true" : "false", c.queries, c.ok,
                 c.partial, c.failed,
                 static_cast<unsigned long long>(c.retries),
                 static_cast<unsigned long long>(c.source_calls), c.qps,
                 c.success_rate, i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

/// True when the tolerant leg answers >= kTolerantSuccessFloor at every
/// fault rate and the two zero-fault cells made the same source calls.
bool CheckGate(const std::vector<Cell>& cells) {
  bool pass = true;
  uint64_t zero_fault_calls[2] = {0, 0};
  for (const Cell& c : cells) {
    if (c.fault_rate == 0.0) zero_fault_calls[c.tolerant] = c.source_calls;
    if (c.tolerant && c.success_rate < kTolerantSuccessFloor) {
      std::printf("FAIL: tolerant success rate %.4f < %.2f at fault rate "
                  "%.2f\n",
                  c.success_rate, kTolerantSuccessFloor, c.fault_rate);
      pass = false;
    }
  }
  if (zero_fault_calls[0] != zero_fault_calls[1]) {
    std::printf("FAIL: with no faults the tolerant leg sent %llu source "
                "calls, the intolerant leg %llu\n",
                static_cast<unsigned long long>(zero_fault_calls[1]),
                static_cast<unsigned long long>(zero_fault_calls[0]));
    pass = false;
  }
  if (pass) {
    std::printf("PASS: tolerant success >= %.2f at every fault rate; "
                "zero-fault source calls equal (%llu)\n",
                kTolerantSuccessFloor,
                static_cast<unsigned long long>(zero_fault_calls[0]));
  }
  return pass;
}

bool Run() {
  const std::vector<double> rates = {0.0, 0.05, 0.20};
  std::vector<Cell> cells;
  for (const double rate : rates) {
    cells.push_back(RunCell(rate, /*tolerant=*/false));
    cells.push_back(RunCell(rate, /*tolerant=*/true));
  }

  const std::vector<int> widths = {7, 10, 9, 9, 9, 9, 9, 12, 10};
  PrintRow({"faults", "tolerant", "ok", "partial", "failed", "retries",
            "qps", "src calls", "success"},
           widths);
  PrintRule(widths);
  for (const Cell& c : cells) {
    PrintRow({FormatDouble(c.fault_rate, 2), c.tolerant ? "yes" : "no",
              std::to_string(c.ok), std::to_string(c.partial),
              std::to_string(c.failed), std::to_string(c.retries),
              FormatDouble(c.qps, 0), std::to_string(c.source_calls),
              FormatDouble(c.success_rate, 4)},
             widths);
  }
  WriteJson(cells, "BENCH_fault.json");
  return CheckGate(cells);
}

}  // namespace
}  // namespace gencompact::bench

int main() {
  std::printf(
      "# Fault sweep: success rate and throughput vs injected transient "
      "fault rate,\n# fault tolerance off vs on (retries + breaker + "
      "partial answers)\n\n");
  const bool pass = gencompact::bench::Run();
  std::printf(
      "\nExpected shape: without tolerance the success rate decays with the "
      "fault rate;\nwith tolerance it stays ~1.0 at the cost of extra "
      "source calls per query.\n");
  return pass ? 0 : 1;
}
