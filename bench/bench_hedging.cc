// Hedged-request benchmark (E13): tail latency vs extra source load.
//
// Four client threads replay single-SP queries against one mediator whose
// source charges a 200us round trip — except for a seeded fraction of "slow"
// calls that take 10ms (stragglers: an overloaded mirror, a lossy path). Per
// slow-call rate {0%, 5%, 20%} the workload runs twice, hedging off and on
// (digest p90 hedge point, warmed before measuring), and reports client-side
// p50/p99, queries/sec, and the extra source calls hedging spent.
//
// Expected shape: at a low straggler rate the hedge point sits at the fast
// mode's latency, so every straggler is raced and p99 collapses from the
// slow-call latency to ~2x the fast round trip — for a few percent of extra
// source calls (acceptance: ≥2x p99 reduction at 5% for ≤10% extra calls).
// At 0% nothing fires (no digest excursions past p90 but scheduling noise);
// at 20% the p90 hedge point usually drifts into the slow mode and hedging
// fades out. A straggler abandoned by a winning hedge never reports its
// latency, though, so in some runs the hedge point stays in the fast mode
// and hedging keeps firing at 20% (EXPERIMENTS.md E13).
// Exits non-zero when the 5% acceptance fails; results are also emitted as
// BENCH_hedge.json for tooling.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "expr/condition_parser.h"
#include "mediator/mediator.h"
#include "ssdl/ssdl_parser.h"

namespace gencompact::bench {
namespace {

constexpr size_t kSourceRows = 500;
constexpr size_t kClientThreads = 4;
constexpr size_t kQueriesPerThread = 300;
constexpr size_t kWarmupQueries = 144;  // fills the digest past min_samples
constexpr std::chrono::microseconds kFastLatency{200};
// Straggler cost: 50x the fast round trip. A hedge win abandons the slow
// call on the wire, so stragglers cost the race nothing past the win.
constexpr std::chrono::microseconds kSlowLatency{10000};
// Hedge-delay floor: keeps scheduling noise in the fast mode (client-side
// p99 ~1-2ms under 8 contending threads) from firing hedges on calls that
// were never stragglers. The digest's p90 arms the timer; the floor
// debounces it, spending the extra-call budget on true stragglers only.
constexpr std::chrono::microseconds kHedgeFloor{2000};
constexpr uint64_t kFaultSeed = 7;

constexpr const char* kSourceSsdl = R"(
  source S(k: string, v: int) {
    rule s2 -> v < $int;
    rule s3 -> v >= $int;
    export s2 : {k, v};
    export s3 : {k, v};
  })";

struct Config {
  double slow_rate = 0;
  bool hedged = false;
  size_t queries = 0;
  size_t errors = 0;
  double seconds = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  uint64_t source_calls = 0;  // measured phase only
  uint64_t hedges_launched = 0;
  uint64_t hedges_won = 0;
};

double PercentileMs(std::vector<double>* latencies_ms, double p) {
  if (latencies_ms->empty()) return 0;
  std::sort(latencies_ms->begin(), latencies_ms->end());
  const size_t index = std::min(
      latencies_ms->size() - 1,
      static_cast<size_t>(p * static_cast<double>(latencies_ms->size())));
  return (*latencies_ms)[index];
}

struct Workload {
  std::vector<ConditionPtr> conditions;
};

Workload MakeWorkload() {
  Workload workload;
  for (int x = 2; x < 50; x += 2) {
    workload.conditions.push_back(
        *ParseCondition("v < " + std::to_string(x)));
    workload.conditions.push_back(
        *ParseCondition("v >= " + std::to_string(100 - x)));
  }
  return workload;
}

std::unique_ptr<Mediator> MakeMediator(bool hedged, double slow_rate) {
  Mediator::Options options;
  options.num_threads = kClientThreads;
  options.cache_shards = 16;
  options.hedge.enabled = hedged;
  options.hedge.quantile = 0.90;
  options.hedge.min_samples = 50;
  options.hedge.min_delay = kHedgeFloor;
  auto mediator = std::make_unique<Mediator>(options);

  Result<SourceDescription> description = ParseSsdl(kSourceSsdl);
  if (!description.ok()) return nullptr;
  auto table = std::make_unique<Table>("S", description->schema());
  for (size_t i = 0; i < kSourceRows; ++i) {
    if (!table
             ->AppendValues({Value::String("r" + std::to_string(i % 37)),
                             Value::Int(static_cast<int64_t>(i % 100))})
             .ok()) {
      return nullptr;
    }
  }
  if (!mediator->RegisterSource(std::move(description).value(),
                                std::move(table))
           .ok()) {
    return nullptr;
  }

  const Result<CatalogEntry*> entry = mediator->catalog()->Find("S");
  if (!entry.ok()) return nullptr;
  (*entry)->source()->set_simulated_latency(kFastLatency);
  FaultPolicy faults;
  faults.seed = kFaultSeed;
  faults.slow_call_rate = slow_rate;
  faults.slow_latency = kSlowLatency;
  (*entry)->source()->set_fault_policy(faults);
  return mediator;
}

Config RunConfig(double slow_rate, bool hedged, bool print_rates) {
  Config config;
  config.slow_rate = slow_rate;
  config.hedged = hedged;
  std::unique_ptr<Mediator> mediator = MakeMediator(hedged, slow_rate);
  const Workload workload = MakeWorkload();
  if (mediator == nullptr || workload.conditions.empty()) return config;

  // Warmup: caches every plan and feeds the latency digest past
  // hedge.min_samples, so the measured phase runs with hedging armed.
  for (size_t q = 0; q < kWarmupQueries; ++q) {
    (void)mediator->QueryCondition(
        "S", workload.conditions[q % workload.conditions.size()], {"v"},
        Strategy::kGenCompact);
  }

  const Mediator::Stats before = mediator->StatsSnapshot();
  std::vector<std::vector<double>> latencies_ms(kClientThreads);
  std::vector<size_t> errors(kClientThreads, 0);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  for (size_t t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([t, &mediator, &workload, &latencies_ms, &errors]() {
      latencies_ms[t].reserve(kQueriesPerThread);
      for (size_t q = 0; q < kQueriesPerThread; ++q) {
        const ConditionPtr& condition =
            workload.conditions[(t * 31 + q) % workload.conditions.size()];
        const auto q_start = std::chrono::steady_clock::now();
        const Result<Mediator::QueryResult> result =
            mediator->QueryCondition("S", condition, {"v"},
                                     Strategy::kGenCompact);
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - q_start)
                              .count();
        if (result.ok()) {
          latencies_ms[t].push_back(ms);
        } else {
          ++errors[t];
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  config.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::vector<double> all_ms;
  for (size_t t = 0; t < kClientThreads; ++t) {
    all_ms.insert(all_ms.end(), latencies_ms[t].begin(),
                  latencies_ms[t].end());
    config.errors += errors[t];
  }
  config.queries = all_ms.size();
  config.qps = config.seconds > 0
                   ? static_cast<double>(config.queries) / config.seconds
                   : 0;
  config.p50_ms = PercentileMs(&all_ms, 0.50);
  config.p99_ms = PercentileMs(&all_ms, 0.99);

  const Mediator::Stats after = mediator->StatsSnapshot();
  if (!after.sources.empty() && !before.sources.empty()) {
    config.source_calls = after.sources[0].source.queries_received -
                          before.sources[0].source.queries_received;
  }
  config.hedges_launched = after.fault_tolerance.hedges_launched -
                           before.fault_tolerance.hedges_launched;
  config.hedges_won =
      after.fault_tolerance.hedges_won - before.fault_tolerance.hedges_won;

  if (print_rates) {
    std::printf("\n--- interval rates (%.0f%% slow, hedging %s) ---\n%s",
                slow_rate * 100, hedged ? "on" : "off",
                after.DiffSince(before).ToString().c_str());
    std::printf("--- mediator stats snapshot ---\n%s\n",
                after.ToString().c_str());
  }
  return config;
}

void WriteJson(const std::vector<Config>& configs, const char* path) {
  std::FILE* f = OpenBenchJson(path, "hedging");
  if (f == nullptr) return;
  std::fprintf(f, "  \"fast_latency_us\": %lld,\n",
               static_cast<long long>(kFastLatency.count()));
  std::fprintf(f, "  \"slow_latency_us\": %lld,\n",
               static_cast<long long>(kSlowLatency.count()));
  std::fprintf(f, "  \"client_threads\": %zu,\n", kClientThreads);
  std::fprintf(f, "  \"hedge_quantile\": 0.90,\n");
  std::fprintf(f, "  \"configs\": [\n");
  for (size_t i = 0; i < configs.size(); ++i) {
    const Config& c = configs[i];
    std::fprintf(f,
                 "    {\"slow_rate\": %.2f, \"hedged\": %s, "
                 "\"queries\": %zu, \"errors\": %zu, \"seconds\": %.4f, "
                 "\"qps\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
                 "\"source_calls\": %llu, \"hedges_launched\": %llu, "
                 "\"hedges_won\": %llu}%s\n",
                 c.slow_rate, c.hedged ? "true" : "false", c.queries,
                 c.errors, c.seconds, c.qps, c.p50_ms, c.p99_ms,
                 static_cast<unsigned long long>(c.source_calls),
                 static_cast<unsigned long long>(c.hedges_launched),
                 static_cast<unsigned long long>(c.hedges_won),
                 i + 1 < configs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

// A p99 over ~1200 samples is one scheduler hiccup away from a spike, so
// each configuration runs three times and the trial with the median p99 is
// reported — standard practice for tail-latency benches on shared machines.
Config RunConfigMedian(double slow_rate, bool hedged, bool print_rates) {
  std::vector<Config> trials;
  for (int t = 0; t < 3; ++t) {
    trials.push_back(RunConfig(slow_rate, hedged, print_rates && t == 0));
  }
  std::sort(trials.begin(), trials.end(),
            [](const Config& a, const Config& b) { return a.p99_ms < b.p99_ms; });
  return trials[1];
}

bool Run() {
  std::printf(
      "# Hedged requests: tail latency vs extra source load "
      "(%lldus fast / %lldus straggler round trips)\n\n",
      static_cast<long long>(kFastLatency.count()),
      static_cast<long long>(kSlowLatency.count()));
  const std::vector<double> slow_rates = {0.0, 0.05, 0.20};
  std::vector<Config> configs;
  for (const double rate : slow_rates) {
    configs.push_back(
        RunConfigMedian(rate, /*hedged=*/false, /*print_rates=*/false));
    configs.push_back(RunConfigMedian(rate, /*hedged=*/true,
                                      /*print_rates=*/rate == 0.05));
  }

  const std::vector<int> widths = {9, 7, 8, 9, 9, 9, 11, 9, 7};
  PrintRow({"slow rate", "hedge", "queries", "qps", "p50 ms", "p99 ms",
            "src calls", "launched", "won"},
           widths);
  PrintRule(widths);
  for (const Config& c : configs) {
    PrintRow({FormatDouble(c.slow_rate, 2), c.hedged ? "on" : "off",
              std::to_string(c.queries), FormatDouble(c.qps, 1),
              FormatDouble(c.p50_ms, 2), FormatDouble(c.p99_ms, 2),
              std::to_string(c.source_calls),
              std::to_string(c.hedges_launched),
              std::to_string(c.hedges_won)},
             widths);
  }

  // Acceptance verdict at the 5% straggler rate: p99 at least halved for at
  // most 10% extra source calls.
  bool pass = false;
  const Config* off = nullptr;
  const Config* on = nullptr;
  for (const Config& c : configs) {
    if (c.slow_rate == 0.05) (c.hedged ? on : off) = &c;
  }
  if (off != nullptr && on != nullptr && off->source_calls > 0 &&
      on->p99_ms > 0) {
    const double p99_reduction = off->p99_ms / on->p99_ms;
    const double extra_calls =
        static_cast<double>(on->source_calls) /
            static_cast<double>(off->source_calls) -
        1.0;
    pass = p99_reduction >= 2.0 && extra_calls <= 0.10;
    std::printf(
        "\nacceptance @5%% slow: p99 reduction %.2fx (need >= 2x), "
        "extra source calls %.1f%% (need <= 10%%) -> %s\n",
        p99_reduction, extra_calls * 100, pass ? "PASS" : "FAIL");
  }
  WriteJson(configs, "BENCH_hedge.json");
  return pass;
}

}  // namespace
}  // namespace gencompact::bench

int main() {
  const bool pass = gencompact::bench::Run();
  std::printf(
      "\nExpected shape: at low straggler rates hedging collapses p99 to "
      "~2x the fast round trip for a few %% extra calls; at high rates the "
      "digest's hedge point usually drifts into the slow mode and hedging "
      "self-limits.\n");
  return pass ? 0 : 1;
}
