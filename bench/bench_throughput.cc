// Multi-client mediator throughput under simulated Internet latency.
//
// M client threads replay a Zipf-skewed workload of feasible target queries
// against one shared Mediator whose sources charge a per-query round-trip
// latency (the k1 of Equation 1 made wall-clock real). Reported per client
// count: queries/sec, p50/p99 latency, and plan-cache hit rate — the
// concurrency counterpart of the paper's cost-model experiments. Results are
// also emitted as BENCH_throughput.json for tooling.
//
// Expected shape: queries/sec scales near-linearly with client threads
// (clients sleep on independent simulated round trips concurrently), and
// the executor's parallel Union/Intersection dispatch pushes per-query p50
// below the sum of its sub-queries' latencies.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "mediator/mediator.h"
#include "workload/datasets.h"
#include "workload/random_capability.h"
#include "workload/random_condition.h"
#include "workload/zipf.h"

namespace gencompact::bench {
namespace {

constexpr size_t kSourceRows = 2000;
constexpr size_t kDistinctQueries = 48;
constexpr size_t kQueriesPerThread = 240;
constexpr double kZipfSkew = 1.1;
constexpr std::chrono::microseconds kSourceLatency{1000};  // 1ms round trip
constexpr size_t kExecutorThreads = 8;
constexpr size_t kCacheShards = 16;

Schema BenchSchema() {
  return Schema({{"s1", ValueType::kString},
                 {"s2", ValueType::kString},
                 {"s3", ValueType::kString},
                 {"n1", ValueType::kInt},
                 {"n2", ValueType::kInt}});
}

/// One replayable target query.
struct WorkItem {
  ConditionPtr condition;
  std::vector<std::string> attrs;
};

struct Config {
  size_t client_threads = 1;
  double seconds = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double cache_hit_rate = 0;
  size_t queries = 0;
  size_t errors = 0;
};

double PercentileMs(std::vector<double>* latencies_ms, double p) {
  if (latencies_ms->empty()) return 0;
  std::sort(latencies_ms->begin(), latencies_ms->end());
  const size_t index = std::min(
      latencies_ms->size() - 1,
      static_cast<size_t>(p * static_cast<double>(latencies_ms->size())));
  return (*latencies_ms)[index];
}

/// Builds a fresh mediator with one random-capability source plus a workload
/// of `kDistinctQueries` feasible queries against it.
struct Environment {
  std::unique_ptr<Mediator> mediator;
  std::vector<WorkItem> workload;
};

Environment MakeEnvironment(uint64_t seed) {
  Environment env;
  Rng rng(seed);
  const Schema schema = BenchSchema();
  std::unique_ptr<Table> table =
      MakeRandomTable("src", schema, kSourceRows, 16, 100, &rng);
  RandomCapabilityOptions cap_options;
  cap_options.download_probability = 0.2;
  const SourceDescription description =
      RandomCapability("src", schema, cap_options, &rng);
  const std::vector<AttributeDomain> domains = ExtractDomains(*table, 6, &rng);

  Mediator::Options options;
  options.num_threads = kExecutorThreads;
  options.cache_shards = kCacheShards;
  env.mediator = std::make_unique<Mediator>(options);
  if (!env.mediator->RegisterSource(description, std::move(table)).ok()) {
    return env;
  }

  // Generate feasible queries only: clients replay real, answerable traffic.
  while (env.workload.size() < kDistinctQueries) {
    RandomConditionOptions cond_options;
    cond_options.num_atoms = 2 + rng.NextIndex(4);
    WorkItem item;
    item.condition = RandomCondition(domains, cond_options, &rng);
    item.attrs = {
        schema.attribute(static_cast<int>(rng.NextIndex(schema.num_attributes())))
            .name};
    const Result<Mediator::QueryResult> probe = env.mediator->QueryCondition(
        "src", item.condition, item.attrs, Strategy::kGenCompact);
    if (!probe.ok()) continue;
    env.workload.push_back(std::move(item));
  }
  return env;
}

Config RunConfig(size_t client_threads, uint64_t seed) {
  Environment env = MakeEnvironment(seed);
  Config config;
  config.client_threads = client_threads;
  if (env.workload.empty()) return config;

  // Latency is injected after workload generation so the feasibility probes
  // above stay fast; every measured query pays the round trip.
  {
    const Result<CatalogEntry*> entry = env.mediator->catalog()->Find("src");
    if (!entry.ok()) return config;
    (*entry)->source()->set_simulated_latency(kSourceLatency);
  }

  const ZipfSampler zipf(env.workload.size(), kZipfSkew);
  std::vector<std::vector<double>> latencies_ms(client_threads);
  std::vector<size_t> errors(client_threads, 0);

  const Mediator::Stats before = env.mediator->StatsSnapshot();
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(client_threads);
  for (size_t t = 0; t < client_threads; ++t) {
    clients.emplace_back([t, seed, &env, &zipf, &latencies_ms, &errors]() {
      Rng thread_rng(seed * 7919 + t);
      latencies_ms[t].reserve(kQueriesPerThread);
      for (size_t q = 0; q < kQueriesPerThread; ++q) {
        const WorkItem& item = env.workload[zipf.Sample(&thread_rng)];
        const auto q_start = std::chrono::steady_clock::now();
        const Result<Mediator::QueryResult> result =
            env.mediator->QueryCondition("src", item.condition, item.attrs,
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
  config.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();

  std::vector<double> all_ms;
  for (size_t t = 0; t < client_threads; ++t) {
    all_ms.insert(all_ms.end(), latencies_ms[t].begin(), latencies_ms[t].end());
    config.errors += errors[t];
  }
  config.queries = all_ms.size();
  config.qps = config.seconds > 0
                   ? static_cast<double>(config.queries) / config.seconds
                   : 0;
  config.p50_ms = PercentileMs(&all_ms, 0.50);
  config.p99_ms = PercentileMs(&all_ms, 0.99);
  config.cache_hit_rate = env.mediator->plan_cache().hit_rate();

  // The mediator-wide observability snapshot for the largest configuration:
  // interner pool growth, memo efficacy, per-source counters in one read —
  // plus the measured interval rendered as rates (qps, hit rates) via
  // DiffSince, the same diff path operators would use between two scrapes.
  if (client_threads >= 8) {
    const Mediator::Stats after = env.mediator->StatsSnapshot();
    std::printf("\n--- interval rates (%zu clients, measured phase) ---\n%s",
                client_threads, after.DiffSince(before).ToString().c_str());
    std::printf("--- mediator stats snapshot (%zu clients) ---\n%s\n",
                client_threads, after.ToString().c_str());
  }
  return config;
}

void WriteJson(const std::vector<Config>& configs, const char* path) {
  std::FILE* f = OpenBenchJson(path, "throughput");
  if (f == nullptr) return;
  std::fprintf(f, "  \"source_latency_us\": %lld,\n",
               static_cast<long long>(kSourceLatency.count()));
  std::fprintf(f, "  \"distinct_queries\": %zu,\n", kDistinctQueries);
  std::fprintf(f, "  \"zipf_skew\": %.2f,\n", kZipfSkew);
  std::fprintf(f, "  \"executor_threads\": %zu,\n", kExecutorThreads);
  std::fprintf(f, "  \"cache_shards\": %zu,\n", kCacheShards);
  std::fprintf(f, "  \"configs\": [\n");
  for (size_t i = 0; i < configs.size(); ++i) {
    const Config& c = configs[i];
    std::fprintf(f,
                 "    {\"client_threads\": %zu, \"queries\": %zu, "
                 "\"errors\": %zu, \"seconds\": %.4f, \"qps\": %.1f, "
                 "\"p50_ms\": %.3f, \"p99_ms\": %.3f, "
                 "\"cache_hit_rate\": %.4f}%s\n",
                 c.client_threads, c.queries, c.errors, c.seconds, c.qps,
                 c.p50_ms, c.p99_ms, c.cache_hit_rate,
                 i + 1 < configs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

void Run() {
  const std::vector<size_t> thread_counts = {1, 4, 8};
  std::vector<Config> configs;
  for (const size_t threads : thread_counts) {
    configs.push_back(RunConfig(threads, /*seed=*/42));
  }

  const std::vector<int> widths = {8, 9, 10, 9, 9, 9, 7};
  PrintRow({"clients", "queries", "qps", "p50 ms", "p99 ms", "hit rate",
            "errors"},
           widths);
  PrintRule(widths);
  for (const Config& c : configs) {
    PrintRow({std::to_string(c.client_threads), std::to_string(c.queries),
              FormatDouble(c.qps, 1), FormatDouble(c.p50_ms, 2),
              FormatDouble(c.p99_ms, 2), FormatDouble(c.cache_hit_rate, 3),
              std::to_string(c.errors)},
             widths);
  }
  if (configs.size() >= 2 && configs.front().qps > 0) {
    std::printf("\nscaling: %.2fx queries/sec at %zu clients vs 1 client\n",
                configs.back().qps / configs.front().qps,
                configs.back().client_threads);
  }
  WriteJson(configs, "BENCH_throughput.json");
}

}  // namespace
}  // namespace gencompact::bench

int main() {
  std::printf(
      "# Throughput: concurrent clients vs one shared mediator "
      "(simulated %lldus source round trip)\n\n",
      static_cast<long long>(gencompact::bench::kSourceLatency.count()));
  gencompact::bench::Run();
  std::printf(
      "\nExpected shape: near-linear qps scaling with clients (independent "
      "round trips overlap), high cache hit rate from the Zipf skew.\n");
  return 0;
}
