// E18: one event-loop engine driven two ways under high fan-out — blocking
// client threads vs one asynchronous submitter — plus admission control
// bounding time-to-answer under overload.
//
// Part 1 — fan-out. One slow source (2ms simulated round trip) and a
// Zipf-skewed workload of feasible target queries, two drivers:
//
//   blocking — kBlockingClients client threads drain the query stream
//              with Mediator::Query. Each query pumps its own event loop
//              on its client thread: the children of one plan overlap
//              their round trips, but a client holds only its one query in
//              flight. Time-to-answer is measured per query.
//   async    — ONE submitter thread keeps kWindow queries in flight through
//              Mediator::QueryAsync; every round trip is a timer on the
//              mediator's loop, so in-flight count is bounded by the window
//              (and the in-flight limiter), not by thread count.
//
// Acceptance: the async driver sustains >= 4x the blocking driver's
// queries/sec, or failing that holds >= 4x kBlockingClients transfers in
// flight from its one submitter (peak limiter occupancy vs one query per
// blocking client).
//
// Part 2 — overload. Offered load far beyond the limiter's drain capacity,
// admission control off vs on. The baseline has no deadline and no gate: it
// queues everything, so every query eventually answers OK but time-to-answer
// grows linearly with the backlog. The admission run caps the backlog
// (max_pending) and enforces a per-query SLO (query_deadline): queries
// arriving past the cap, or whose expected queue wait already exceeds the
// budget, are shed BEFORE planning, so the answered queries see a bounded
// queue and p99 time-to-answer (a shed IS an answer — an instant one) stays
// near the SLO instead of the backlog depth. The hard cap is what makes the
// leg deterministic: the SLO gate's latency estimate is warmup-dominated
// and sits within a few percent of the 12ms budget at this queue depth, so
// alone it flips between shedding the whole flood and none of it.
//
// Acceptance: admission keeps p99 time-to-answer below the no-admission run
// while shedding a nonzero share of the offered load.
//
// Exit code is non-zero when an acceptance fails; results go to
// BENCH_async.json.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
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
constexpr size_t kDistinctQueries = 64;
constexpr size_t kTotalQueries = 768;
constexpr double kZipfSkew = 1.1;
constexpr std::chrono::microseconds kSourceLatency{2000};  // 2ms round trip
constexpr size_t kBlockingClients = 8;  // client threads of the blocking leg
constexpr size_t kWindow = 64;       // async submitter's in-flight target
constexpr uint64_t kSeed = 42;

// Overload leg: offered load >> drain capacity, per-query deadline.
constexpr size_t kOverloadQueries = 512;
constexpr size_t kOverloadWindow = 256;
constexpr size_t kOverloadDrain = 8;  // limiter global cap = drain width
constexpr std::chrono::microseconds kOverloadDeadline{12000};

Schema BenchSchema() {
  return Schema({{"s1", ValueType::kString},
                 {"s2", ValueType::kString},
                 {"s3", ValueType::kString},
                 {"n1", ValueType::kInt},
                 {"n2", ValueType::kInt}});
}

struct ModeResult {
  std::string mode;
  size_t queries = 0;
  size_t ok = 0;
  size_t shed = 0;
  size_t errors = 0;  // non-shed failures (deadline misses under overload)
  double seconds = 0;
  double qps = 0;
  // Round trips on the wire at once: the limiter gauge on the async legs,
  // the source's own gauge on the blocking leg (which has no limiter).
  size_t peak_inflight = 0;
  double p50_ms = 0;  // time-to-answer percentiles
  double p99_ms = 0;
};

/// A fresh mediator plus a replayable SQL workload. Every mode rebuilds the
/// identical environment from the same seed.
struct Environment {
  std::unique_ptr<Mediator> mediator;
  std::vector<std::string> workload;
};

Environment MakeEnvironment(Mediator::Options options, uint64_t seed) {
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

  env.mediator = std::make_unique<Mediator>(options);
  if (!env.mediator->RegisterSource(description, std::move(table)).ok()) {
    return env;
  }

  // Feasible queries only, probed through the same SQL entry point the
  // replay uses (this also filters conditions whose text form round-trips
  // imperfectly through the parser). Probing happens BEFORE the simulated
  // latency is dialed in, so it is cheap.
  while (env.workload.size() < kDistinctQueries) {
    RandomConditionOptions cond_options;
    cond_options.num_atoms = 2 + rng.NextIndex(4);
    const ConditionPtr condition = RandomCondition(domains, cond_options, &rng);
    const std::string& attr =
        schema
            .attribute(static_cast<int>(rng.NextIndex(schema.num_attributes())))
            .name;
    const std::string sql =
        "SELECT " + attr + " FROM src WHERE " + condition->ToString();
    if (!env.mediator->Query(sql).ok()) continue;
    env.workload.push_back(sql);
  }
  return env;
}

void SetSourceLatency(Environment* env, std::chrono::microseconds latency) {
  const Result<CatalogEntry*> entry = env->mediator->catalog()->Find("src");
  if (entry.ok()) (*entry)->source()->set_simulated_latency(latency);
}

double PercentileMs(std::vector<double>* latencies, double q) {
  if (latencies->empty()) return 0;
  std::sort(latencies->begin(), latencies->end());
  const size_t index = std::min(
      latencies->size() - 1,
      static_cast<size_t>(q * static_cast<double>(latencies->size())));
  return (*latencies)[index];
}

/// Blocking driver: kBlockingClients threads each issue Mediator::Query in
/// turn and record every query's time-to-answer.
ModeResult RunBlocking(uint64_t seed) {
  ModeResult result;
  result.mode = "blocking";
  Mediator::Options options;
  options.num_threads = kBlockingClients;  // scan offload pool
  Environment env = MakeEnvironment(options, seed);
  if (env.workload.empty()) return result;
  SetSourceLatency(&env, kSourceLatency);
  const Result<CatalogEntry*> entry = env.mediator->catalog()->Find("src");
  if (entry.ok()) (*entry)->source()->ResetStats();
  const ZipfSampler zipf(env.workload.size(), kZipfSkew);
  const size_t per_client = kTotalQueries / kBlockingClients;
  std::vector<std::vector<double>> answer_ms(kBlockingClients);
  std::atomic<size_t> errors{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(kBlockingClients);
  for (size_t t = 0; t < kBlockingClients; ++t) {
    clients.emplace_back([t, seed, per_client, &env, &zipf, &answer_ms,
                          &errors]() {
      Rng thread_rng(seed * 7919 + t);
      answer_ms[t].reserve(per_client);
      for (size_t q = 0; q < per_client; ++q) {
        const std::string& sql = env.workload[zipf.Sample(&thread_rng)];
        const auto issued = std::chrono::steady_clock::now();
        const bool ok = env.mediator->Query(sql).ok();
        answer_ms[t].push_back(std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - issued)
                                   .count());
        if (!ok) errors.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::vector<double> all_ms;
  for (const std::vector<double>& client_ms : answer_ms) {
    all_ms.insert(all_ms.end(), client_ms.begin(), client_ms.end());
  }
  result.queries = all_ms.size();
  result.errors = errors.load();
  result.ok = result.queries - result.errors;
  result.qps = result.seconds > 0
                   ? static_cast<double>(result.queries) / result.seconds
                   : 0;
  result.p50_ms = PercentileMs(&all_ms, 0.50);
  result.p99_ms = PercentileMs(&all_ms, 0.99);
  if (entry.ok()) result.peak_inflight = (*entry)->source()->peak_inflight();
  return result;
}

/// Windowed async submitter shared by the fan-out and overload legs: one
/// thread keeps `window` queries in flight via QueryAsync and records each
/// query's time-to-answer (completion OR shed — a fast failure is an answer).
ModeResult RunAsyncWindow(const std::string& mode, Mediator::Options options,
                          uint64_t seed, size_t total, size_t window,
                          std::chrono::microseconds latency) {
  ModeResult result;
  result.mode = mode;
  Environment env = MakeEnvironment(options, seed);
  if (env.workload.empty()) return result;
  SetSourceLatency(&env, latency);
  const ZipfSampler zipf(env.workload.size(), kZipfSkew);
  Rng rng(seed * 7919);

  std::mutex mu;
  std::condition_variable cv;
  size_t in_flight = 0;
  size_t done = 0;
  size_t ok = 0;
  size_t shed = 0;
  size_t errors = 0;
  std::vector<double> answer_ms;
  answer_ms.reserve(total);

  const Mediator::Stats before = env.mediator->StatsSnapshot();
  const auto start = std::chrono::steady_clock::now();
  for (size_t q = 0; q < total; ++q) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return in_flight < window; });
      ++in_flight;
    }
    const std::string& sql = env.workload[zipf.Sample(&rng)];
    const auto issued = std::chrono::steady_clock::now();
    env.mediator->QueryAsync(sql, [&, issued](Result<Mediator::QueryResult> r) {
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - issued)
                            .count();
      std::lock_guard<std::mutex> lock(mu);
      --in_flight;
      ++done;
      answer_ms.push_back(ms);
      if (r.ok()) {
        ++ok;
      } else if (r.status().code() == StatusCode::kUnavailable &&
                 r.status().message().find("admission control") !=
                     std::string::npos) {
        ++shed;
      } else {
        ++errors;
      }
      cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done == total; });
  }
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.queries = total;
  result.ok = ok;
  result.shed = shed;
  result.errors = errors;
  result.qps = result.seconds > 0
                   ? static_cast<double>(result.queries) / result.seconds
                   : 0;
  result.p50_ms = PercentileMs(&answer_ms, 0.50);
  result.p99_ms = PercentileMs(&answer_ms, 0.99);

  const Mediator::Stats after = env.mediator->StatsSnapshot();
  result.peak_inflight = after.scheduler.peak_inflight;
  std::printf("\n--- interval rates (%s) ---\n%s", mode.c_str(),
              after.DiffSince(before).ToString().c_str());
  return result;
}

ModeResult RunAsync(uint64_t seed) {
  Mediator::Options options;
  options.num_threads = kBlockingClients;  // scan offload pool, same size
  options.inflight.global = 2 * kWindow;  // gauge, not the bottleneck here
  return RunAsyncWindow("async", options, seed, kTotalQueries, kWindow,
                        kSourceLatency);
}

ModeResult RunOverload(uint64_t seed, bool admission) {
  Mediator::Options options;
  options.inflight.global = kOverloadDrain;
  if (admission) {
    // SLO-aware: a deadline to shed against, enforced before planning, plus
    // a hard backlog cap — 4 drain waves of queue is the most a query can
    // sit behind and still answer inside the 12ms budget at ~2ms per trip.
    options.query_deadline = kOverloadDeadline;
    options.admission.enabled = true;
    options.admission.max_pending = 4 * kOverloadDrain;
  }
  ModeResult result = RunAsyncWindow(
      admission ? "overload+admission" : "overload", options, seed,
      kOverloadQueries, kOverloadWindow, kSourceLatency);
  return result;
}

void WriteJson(const std::vector<ModeResult>& modes, double speedup,
               double inflight_per_worker, const char* path) {
  std::FILE* f = OpenBenchJson(path, "async");
  if (f == nullptr) return;
  std::fprintf(f, "  \"source_latency_us\": %lld,\n",
               static_cast<long long>(kSourceLatency.count()));
  std::fprintf(f, "  \"distinct_queries\": %zu,\n", kDistinctQueries);
  std::fprintf(f, "  \"total_queries\": %zu,\n", kTotalQueries);
  std::fprintf(f, "  \"zipf_skew\": %.2f,\n", kZipfSkew);
  std::fprintf(f, "  \"blocking_clients\": %zu,\n", kBlockingClients);
  std::fprintf(f, "  \"async_window\": %zu,\n", kWindow);
  std::fprintf(f, "  \"overload_window\": %zu,\n", kOverloadWindow);
  std::fprintf(f, "  \"overload_drain\": %zu,\n", kOverloadDrain);
  std::fprintf(f, "  \"overload_deadline_us\": %lld,\n",
               static_cast<long long>(kOverloadDeadline.count()));
  std::fprintf(f, "  \"speedup\": %.2f,\n", speedup);
  std::fprintf(f, "  \"inflight_per_worker\": %.2f,\n", inflight_per_worker);
  std::fprintf(f, "  \"modes\": [\n");
  for (size_t i = 0; i < modes.size(); ++i) {
    const ModeResult& m = modes[i];
    std::fprintf(
        f,
        "    {\"mode\": \"%s\", \"queries\": %zu, \"ok\": %zu, "
        "\"shed\": %zu, \"errors\": %zu, \"seconds\": %.4f, \"qps\": %.1f, "
        "\"peak_inflight\": %zu, \"p50_ms\": %.2f, \"p99_ms\": %.2f}%s\n",
        m.mode.c_str(), m.queries, m.ok, m.shed, m.errors, m.seconds, m.qps,
        m.peak_inflight, m.p50_ms, m.p99_ms,
        i + 1 < modes.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

int Run() {
  const ModeResult blocking = RunBlocking(kSeed);
  const ModeResult async = RunAsync(kSeed);
  const ModeResult overload = RunOverload(kSeed, /*admission=*/false);
  const ModeResult admitted = RunOverload(kSeed, /*admission=*/true);

  const std::vector<int> widths = {19, 8, 6, 6, 7, 8, 9, 8, 8, 8};
  PrintRow({"mode", "queries", "ok", "shed", "errors", "seconds", "qps",
            "inflight", "p50 ms", "p99 ms"},
           widths);
  PrintRule(widths);
  for (const ModeResult& m : {blocking, async, overload, admitted}) {
    PrintRow({m.mode, std::to_string(m.queries), std::to_string(m.ok),
              std::to_string(m.shed), std::to_string(m.errors),
              FormatDouble(m.seconds, 3), FormatDouble(m.qps, 1),
              std::to_string(m.peak_inflight), FormatDouble(m.p50_ms, 2),
              FormatDouble(m.p99_ms, 2)},
             widths);
  }

  const double speedup = blocking.qps > 0 ? async.qps / blocking.qps : 0;
  // One submitter thread drives all async transfers; a blocking client
  // holds one query in flight at a time.
  const double inflight_per_worker = static_cast<double>(async.peak_inflight);
  const bool throughput_ok = speedup >= 4.0;
  const bool inflight_ok =
      inflight_per_worker >= 4.0 * static_cast<double>(kBlockingClients);
  std::printf("\nACCEPTANCE async vs blocking sustained throughput: %.2fx "
              "(target >= 4x): %s\n",
              speedup, throughput_ok ? "PASS" : "FAIL");
  std::printf("ACCEPTANCE in-flight transfers from one submitter: %.1f "
              "(target >= %.1f): %s\n",
              inflight_per_worker, 4.0 * static_cast<double>(kBlockingClients),
              inflight_ok ? "PASS" : "FAIL");
  const bool errors_ok = blocking.errors == 0 && async.errors == 0;
  if (!errors_ok) {
    std::printf("ACCEPTANCE zero errors on the fan-out legs: FAIL "
                "(blocking %zu, async %zu)\n",
                blocking.errors, async.errors);
  }
  const bool overload_ok =
      admitted.shed > 0 && admitted.p99_ms < overload.p99_ms;
  std::printf("ACCEPTANCE shed-before-planning bounds p99 under overload: "
              "%.2fms (admission, %zu shed) vs %.2fms (no admission): %s\n",
              admitted.p99_ms, admitted.shed, overload.p99_ms,
              overload_ok ? "PASS" : "FAIL");

  WriteJson({blocking, async, overload, admitted}, speedup, inflight_per_worker,
            "BENCH_async.json");
  return (throughput_ok || inflight_ok) && errors_ok && overload_ok ? 0 : 1;
}

}  // namespace
}  // namespace gencompact::bench

int main() {
  std::printf(
      "# One event-loop engine: blocking clients vs one async submitter "
      "(simulated %lldus source round trip)\n\n",
      static_cast<long long>(gencompact::bench::kSourceLatency.count()));
  return gencompact::bench::Run();
}
