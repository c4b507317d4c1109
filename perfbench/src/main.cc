// The mediator benchmark driver: one workload per process.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--smoke] [--corrupt-query <i>] [--source-id <id>]
//                    [--trace-out <path>] [--samples-out <path>]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
// the traced mirror and prints the per-layer metrics. --samples-out writes
// each untraced query's round, latency and SQL as tab-separated lines. The
// last line of standard output is one JSON object: correct, attempted,
// failed, metrics. The exit code is nonzero when any answer is wrong or the
// mirror drifts.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "oracle.h"
#include "trace.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using gencompact::Mediator;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool smoke = false;
  int64_t corrupt_query = -1;
  std::string source_id = "unknown";
  std::string trace_out;
  std::string samples_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if ((v = value()) == nullptr) return false;
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      args->trace = std::atoi(v);
    } else if (flag == "--corrupt-query") {
      args->corrupt_query = std::strtoll(v, &end, 10);
    } else if (flag == "--source-id") {
      args->source_id = v;
    } else if (flag == "--trace-out") {
      args->trace_out = v;
    } else if (flag == "--samples-out") {
      args->samples_out = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 50.0); }

/// The configured tail percentile if at least ten samples lie beyond it,
/// otherwise the highest such percentile of a fixed ladder.
double TailPercentile(double configured, size_t samples) {
  const auto supported = [&](double p) {
    return static_cast<double>(samples) * (1.0 - p / 100.0) >= 10.0;
  };
  if (supported(configured)) return configured;
  for (const double p : {99.0, 98.0, 95.0, 90.0, 80.0, 75.0}) {
    if (p < configured && supported(p)) return p;
  }
  return 50.0;
}

/// Samples needed for ten to lie beyond percentile p.
size_t TailSamples(double p) {
  return static_cast<size_t>(std::ceil(10.0 / (1.0 - p / 100.0) - 1e-9));
}

struct Sample {
  double latency_ms = 0.0;  ///< due time to completion
  double lag_ms = 0.0;      ///< how late the generator sent it
  double queue_ms = 0.0;    ///< due time to a client picking it up
  double true_cost = 0.0;
  int64_t done_ns = 0;
  size_t round = 0;  ///< closed loop: the round it ran in
  bool failed = false;
};

struct LoopResult {
  std::vector<Sample> samples;  ///< stream order
  double busy_s = 0.0;          ///< time the mediator had queries to answer
  size_t failed = 0;
  std::string first_failure;
  double rss_window_mb = 0.0;
  uint64_t rejections = 0;
};

uint64_t SourceRejections(Mediator& mediator) {
  uint64_t total = 0;
  for (const auto& source : mediator.StatsSnapshot().sources) {
    total += source.source.queries_rejected;
  }
  return total;
}

/// Checks an answer against the oracle. `corrupt` drops a row from the
/// answer first, to prove the check catches a wrong answer.
bool Verify(const BenchQuery& query,
            const gencompact::Result<Mediator::QueryResult>& result,
            bool corrupt, std::string* why) {
  if (!result.ok()) {
    *why = result.status().ToString();
    return false;
  }
  AnswerDigest got = DigestRowSet(result->rows);
  if (corrupt) {
    if (result->rows.empty()) {
      got.rows += 1;
    } else {
      got.rows -= 1;
      got.sum -= HashRowValues(result->rows.rows().begin()->values());
    }
  }
  if (!result->completeness.complete) {
    *why = "partial answer";
    return false;
  }
  if (got != query.expected) {
    *why = "answer differs from the oracle: " + std::to_string(got.rows) +
           " rows, expected " + std::to_string(query.expected.rows);
    return false;
  }
  return true;
}

void RecordFailure(LoopResult* result, const BenchQuery& query,
                   const std::string& why) {
  result->failed += 1;
  if (result->first_failure.empty()) {
    result->first_failure = why + "\n  query: " + query.sql;
  }
}

/// One client, back to back, in whole rounds of `round` queries. Runs while
/// another round fits before `seconds` have passed, and until at least
/// `min_queries` were answered. With `reset`, every round after the first
/// runs on a freshly set-up mediator (set-up time appended to
/// `setup_times`).
LoopResult RunClosedLoop(Workload& workload, Stream stream, double seconds,
                         size_t min_queries, size_t round, bool reset,
                         int64_t corrupt, std::vector<double>* setup_times) {
  LoopResult result;
  const int64_t start = WallNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  int64_t due = start;
  for (size_t r = 0;; ++r) {
    const int64_t round_start = WallNs();
    if (r > 0 && reset) {
      if (!workload.SetUp()) {
        result.failed += 1;
        result.first_failure = "set-up failed before round " + std::to_string(r);
        break;
      }
      setup_times->push_back(static_cast<double>(WallNs() - round_start) / 1e9);
    }
    Mediator& mediator = workload.mediator();
    const uint64_t rejections_before = SourceRejections(mediator);
    for (size_t k = 0; k < round; ++k) {
      const size_t i = result.samples.size();
      const BenchQuery& query = workload.Query(stream, i);
      const int64_t sent = WallNs();
      const auto answer = mediator.Query(query.sql);
      const int64_t done = WallNs();
      Sample sample;
      sample.latency_ms = static_cast<double>(done - sent) / 1e6;
      sample.lag_ms = static_cast<double>(sent - due) / 1e6;
      sample.queue_ms = sample.lag_ms;
      sample.done_ns = done;
      sample.round = r;
      result.busy_s += static_cast<double>(done - sent) / 1e9;
      std::string why;
      if (!Verify(query, answer, corrupt == static_cast<int64_t>(i), &why)) {
        sample.failed = true;
        RecordFailure(&result, query, why);
      } else {
        sample.true_cost = answer->true_cost;
      }
      result.samples.push_back(sample);
      if (i + 1 == min_queries) result.rss_window_mb = PeakRssMb();
      due = WallNs();
    }
    result.rejections += SourceRejections(mediator) - rejections_before;
    const int64_t now = WallNs();
    if (result.samples.size() >= min_queries && now + (now - round_start) > deadline) {
      break;
    }
  }
  if (result.rss_window_mb == 0.0) result.rss_window_mb = PeakRssMb();
  return result;
}

/// A generator thread offers queries at the workload's fixed rate to its
/// client threads; latency counts from each query's scheduled send time.
LoopResult RunOpenLoop(Workload& workload, Stream stream, double seconds,
                       int64_t corrupt) {
  const WorkloadConfig& config = workload.config();
  Mediator& mediator = workload.mediator();
  const size_t n = std::max<size_t>(
      1, static_cast<size_t>(std::llround(config.rate_qps * seconds)));
  std::vector<const BenchQuery*> queries(n);
  for (size_t i = 0; i < n; ++i) queries[i] = &workload.Query(stream, i);

  LoopResult result;
  result.samples.resize(n);
  const uint64_t rejections_before = SourceRejections(mediator);
  struct Item {
    size_t index;
    int64_t due;
    int64_t sent;
  };
  std::mutex mu;  // guards queue, closed, result.failed/first_failure
  std::condition_variable cv;
  std::deque<Item> queue;
  bool closed = false;
  const int64_t interval = static_cast<int64_t>(1e9 / config.rate_qps);
  const int64_t start = WallNs() + 2000000;

  const auto client = [&]() {
    for (;;) {
      Item item{};
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return closed || !queue.empty(); });
        if (queue.empty()) return;
        item = queue.front();
        queue.pop_front();
      }
      const int64_t picked = WallNs();
      const BenchQuery& query = *queries[item.index];
      const auto answer = mediator.Query(query.sql);
      const int64_t done = WallNs();
      Sample& sample = result.samples[item.index];
      sample.latency_ms = static_cast<double>(done - item.due) / 1e6;
      sample.lag_ms = static_cast<double>(item.sent - item.due) / 1e6;
      sample.queue_ms = static_cast<double>(picked - item.due) / 1e6;
      sample.done_ns = done;
      std::string why;
      if (!Verify(query, answer,
                  corrupt == static_cast<int64_t>(item.index), &why)) {
        sample.failed = true;
        std::lock_guard<std::mutex> lock(mu);
        RecordFailure(&result, query, why);
      } else {
        sample.true_cost = answer->true_cost;
      }
    }
  };

  std::vector<std::thread> clients;
  for (size_t c = 0; c < config.clients; ++c) clients.emplace_back(client);
  for (size_t i = 0; i < n; ++i) {
    const int64_t due = start + static_cast<int64_t>(i) * interval;
    const int64_t now = WallNs();
    if (due > now) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    const int64_t sent = WallNs();
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back({i, due, sent});
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  cv.notify_all();
  for (std::thread& t : clients) t.join();

  int64_t last = start;
  for (const Sample& s : result.samples) last = std::max(last, s.done_ns);
  result.busy_s = static_cast<double>(last - start) / 1e9;
  result.rss_window_mb = PeakRssMb();
  result.rejections = SourceRejections(mediator) - rejections_before;
  return result;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(const std::vector<Metric>& metrics, bool correct,
                 size_t attempted, size_t failed) {
  std::printf("\n%-40s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-40s %16.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-40s %16.6f  %s\n", "failed_fraction",
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
              "fraction");
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.10g", v);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::fflush(stdout);
  std::printf("%s\n", json.c_str());
}

void PrintProvenance(const Args& args, const WorkloadConfig& config) {
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::string params;
  for (const auto& [key, value] : config.params) {
    params += ", \"" + key + "\": \"" + value + "\"";
  }
  std::printf(
      "provenance {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"smoke\": %s, \"build_type\": \"%s\", \"optimized\": "
      "%s, \"compiler\": \"%s\", \"source_id\": \"%s\", \"nproc\": %u, "
      "\"tail_percentile\": %g, \"count_window\": %zu, \"trace_window\": %zu"
      "%s}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace, args.smoke ? "true" : "false",
      PERFBENCH_BUILD_TYPE, optimized ? "true" : "false", __VERSION__,
      args.source_id.c_str(), std::thread::hardware_concurrency(),
      config.tail_percentile, config.count_window, config.trace_window,
      params.c_str());
  if (!optimized) {
    std::printf("WARNING: built without optimisation; timings are not "
                "representative\n");
  }
}

int RunEndToEnd(Workload& workload, const Args& args,
                std::vector<double> setup_times) {
  const WorkloadConfig& config = workload.config();
  const LoopResult run =
      config.open_loop
          ? RunOpenLoop(workload, Stream::kTimed, args.seconds, args.corrupt_query)
          : RunClosedLoop(workload, Stream::kTimed, args.seconds,
                          (args.smoke ? config.count_window
                                      : std::max(config.count_window,
                                                 TailSamples(config.tail_percentile))) +
                              (config.reset_each_round ? config.round_queries : 0),
                          config.round_queries, config.reset_each_round,
                          args.corrupt_query, &setup_times);
  const double setup_s = Median(setup_times);
  if (!args.samples_out.empty()) {
    if (FILE* out = std::fopen(args.samples_out.c_str(), "w")) {
      for (size_t i = 0; i < run.samples.size(); ++i) {
        std::fprintf(out, "%zu\t%.6f\t%s\n", run.samples[i].round,
                     run.samples[i].latency_ms,
                     workload.Query(Stream::kTimed, i).sql.c_str());
      }
      std::fclose(out);
    }
  }

  // A closed loop's rounds are replicates: the same query mix, and with
  // reset_each_round the same mediator state. On a shared host other
  // tenants slow whole rounds, so the median and the throughput come from
  // the round with the least busy time, the least disturbed replicate; a
  // change to the program slows every round alike and still shows in full.
  // The tail needs more samples than one round holds and is taken over
  // every measured round. With reset_each_round the first round, on the
  // process's first mediator, is not measured: it often runs slower while
  // the process warms up. The open loop uses every sample throughout, as
  // its queueing is part of what it measures.
  std::map<size_t, std::vector<double>> rounds;
  for (const Sample& s : run.samples) {
    if (!config.reset_each_round || s.round > 0) rounds[s.round].push_back(s.latency_ms);
  }
  std::vector<double> latencies;
  std::vector<double> fastest;
  double fastest_busy_ms = 0.0;
  for (const auto& [r, values] : rounds) {
    latencies.insert(latencies.end(), values.begin(), values.end());
    const double busy_ms = std::accumulate(values.begin(), values.end(), 0.0);
    if (fastest.empty() || busy_ms < fastest_busy_ms) {
      fastest = values;
      fastest_busy_ms = busy_ms;
    }
  }
  const std::vector<double>& central = config.open_loop ? latencies : fastest;
  const double throughput =
      config.open_loop ? static_cast<double>(latencies.size()) / run.busy_s
                       : static_cast<double>(fastest.size()) / (fastest_busy_ms / 1e3);
  double cost = 0.0;
  size_t costed = 0;
  for (size_t i = 0; i < run.samples.size() && i < config.count_window; ++i) {
    cost += run.samples[i].true_cost;
    costed += 1;
  }
  const double tail = TailPercentile(config.tail_percentile, latencies.size());
  std::printf("queries %zu in %zu rounds; p50 and throughput over %zu queries, "
              "latency_tail_ms (p%g) over %zu; count metrics over the first "
              "%zu queries; source rejections %llu\n",
              run.samples.size(),
              run.samples.empty() ? size_t{0} : run.samples.back().round + 1,
              central.size(), tail, latencies.size(), costed,
              static_cast<unsigned long long>(run.rejections));
  if (!run.first_failure.empty()) {
    std::printf("FAILED: %s\n", run.first_failure.c_str());
  }
  const std::vector<Metric> metrics = {
      {"latency_p50_ms", Median(central), "ms"},
      {"latency_tail_ms", Percentile(latencies, tail), "ms"},
      {"throughput_qps", throughput, "1/s"},
      {"true_cost_per_query", costed > 0 ? cost / static_cast<double>(costed) : 0.0,
       "cost"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", run.rss_window_mb, "MB"},
  };
  const bool correct = run.failed == 0 && run.rejections == 0;
  PrintResult(metrics, correct, run.samples.size(), run.failed);
  return correct ? 0 : 1;
}

int RunTraced(Workload& workload, const Args& args) {
  const WorkloadConfig& config = workload.config();
  Mediator& mediator = workload.mediator();
  Tracer tracer;
  Mirror mirror(&mediator, &tracer, workload.sources(), config.options);

  // The mirror's plan cache sees the same warm-up the mediator's did (with
  // fresh constants no traced query can hit it, so there is nothing to warm).
  for (size_t i = 0; !config.fresh_constants && i < workload.warmup_queries(); ++i) {
    (void)mirror.Run(workload.Query(Stream::kWarmup, i).sql);
  }
  const size_t first_span = tracer.spans().size();

  // Phase 1: traced, one sequential thread.
  const Mediator::Stats before = mediator.StatsSnapshot();
  const double traced_share = config.open_loop ? 0.5 : 0.7;
  const int64_t start = WallNs();
  const int64_t deadline =
      start + static_cast<int64_t>(args.seconds * traced_share * 1e9);
  LayerCounts window_counts;
  uint64_t dp_subsets = 0;
  uint64_t bind_edges = 0;
  uint64_t rejections = 0;
  std::vector<double> traced_ms;
  std::vector<double> est_over_true;
  struct Planned {
    size_t query;
    int plan_span;
    uint64_t items;
  };
  std::vector<Planned> planned;
  int64_t replan_saved_ns = 0;
  int64_t replan_saved_items = 0;
  size_t failed = 0;
  std::string first_failure;
  const auto fail = [&](const BenchQuery& query, const std::string& why) {
    failed += 1;
    if (first_failure.empty()) first_failure = why + "\n  query: " + query.sql;
  };
  for (size_t i = 0;; ++i) {
    const BenchQuery& query = workload.Query(Stream::kTraced, i);
    tracer.set_query(i);
    const MirrorOutcome out = mirror.Run(query.sql);
    traced_ms.push_back(
        static_cast<double>(tracer.span(out.root).duration_ns()) / 1e6);
    rejections += out.counts.rejections;
    if (out.plan_span >= 0) {
      planned.push_back({i, out.plan_span, out.plan_items});
      replan_saved_ns += tracer.span(out.plan_span).duration_ns() - out.replan_ns;
      replan_saved_items += static_cast<int64_t>(out.plan_items) -
                            static_cast<int64_t>(out.replan_items);
    }
    if (i < config.trace_window) {
      window_counts += out.counts;
      dp_subsets += out.dp_subsets;
      bind_edges += out.bind_edges;
    }
    if (!out.ok) {
      fail(query, "mirrored pipeline failed: " + out.error);
    } else if (out.digest != query.expected) {
      fail(query, "mirrored pipeline answer differs from the oracle");
    } else {
      double estimated = out.estimated_cost;
      double true_cost = out.true_cost;
      if (!out.is_mediator_call) {
        // Integrity: the mirror must behave exactly like Mediator::Query.
        const auto answer = mediator.Query(query.sql);
        if (!answer.ok()) {
          fail(query, "Mediator::Query failed: " + answer.status().ToString());
        } else if (DigestRowSet(answer->rows) != out.digest ||
                   answer->exec.source_queries != out.source_queries) {
          fail(query, "mirror drift: Mediator::Query returned " +
                          std::to_string(answer->rows.size()) + " rows from " +
                          std::to_string(answer->exec.source_queries) +
                          " source queries, the mirror " +
                          std::to_string(out.digest.rows) + " rows from " +
                          std::to_string(out.source_queries));
        } else {
          estimated = answer->estimated_cost;
          true_cost = answer->true_cost;
        }
      }
      if (true_cost > 0.0) est_over_true.push_back(estimated / true_cost);
    }
    if (WallNs() >= deadline && i + 1 >= config.trace_window) break;
  }
  const Mediator::Stats after = mediator.StatsSnapshot();
  const size_t traced = traced_ms.size();

  // Check time from outside: planning the same condition twice on one
  // handle differs only in the Earley work the memo saved the second time,
  // so (plan - replan) / (items - replan items) is the cost of one Earley
  // item; a plan's Check time is that cost times its Earley items.
  const double ns_per_item =
      replan_saved_items > 0 && replan_saved_ns > 0
          ? static_cast<double>(replan_saved_ns) / static_cast<double>(replan_saved_items)
          : 0.0;
  for (const Planned& p : planned) {
    tracer.set_query(p.query);
    const int64_t plan_ns = tracer.span(p.plan_span).duration_ns();
    tracer.AddDerived("ssdl.check", p.plan_span,
                      std::min<int64_t>(plan_ns, static_cast<int64_t>(
                                                     ns_per_item * static_cast<double>(p.items))));
  }

  // Phase 2: the same kind of queries untraced, for the tracing overhead.
  const double control_share = config.open_loop ? 0.25 : 0.3;
  const LoopResult control = RunClosedLoop(
      workload, config.fresh_constants ? Stream::kControl : Stream::kTraced,
      args.seconds * control_share, std::max<size_t>(1, config.trace_window / 4),
      1, false, -1, nullptr);
  failed += control.failed;
  if (first_failure.empty()) first_failure = control.first_failure;
  // Phase 3 (open loop only): the load generator's own behaviour.
  LoopResult load;
  if (config.open_loop) {
    load = RunOpenLoop(workload, Stream::kTimed, args.seconds * 0.25, -1);
    failed += load.failed;
    if (first_failure.empty()) first_failure = load.first_failure;
  }
  const LoopResult& generator = config.open_loop ? load : control;
  std::vector<double> lags;
  std::vector<double> waits;
  std::vector<double> control_ms;
  for (const Sample& s : generator.samples) {
    lags.push_back(s.lag_ms);
    waits.push_back(s.queue_ms);
  }
  for (const Sample& s : control.samples) control_ms.push_back(s.latency_ms);

  const std::map<std::string, Tracer::Totals> totals = tracer.Aggregate(first_span);
  const auto total = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? Tracer::Totals{} : it->second;
  };
  const double n = static_cast<double>(traced);
  const auto per_query_ms = [&](int64_t ns) { return static_cast<double>(ns) / 1e6 / n; };
  const auto per_query_us = [&](int64_t ns) { return static_cast<double>(ns) / 1e3 / n; };
  int64_t layer_self = 0;
  for (const auto& [name, t] : totals) {
    if (name != "query") layer_self += t.self_ns;
  }
  const double coverage = static_cast<double>(layer_self) /
                          static_cast<double>(std::max<int64_t>(1, total("query").duration_ns));
  const double window = static_cast<double>(std::min(traced, config.trace_window));
  const auto per_window = [&](uint64_t count) { return static_cast<double>(count) / window; };
  const double hits = static_cast<double>(after.plan_cache.hits - before.plan_cache.hits);
  const double misses =
      static_cast<double>(after.plan_cache.misses - before.plan_cache.misses);

  std::printf("traced queries %zu (count metrics over the first %zu); control "
              "queries %zu; layer self time covers %.4f of traced wall time\n",
              traced, static_cast<size_t>(window), control.samples.size(),
              coverage);
  bool correct = failed == 0 && rejections == 0 && control.rejections == 0;
  if (coverage < 0.95 || coverage > 1.05) {
    correct = false;
    std::printf("FAILED: layer self times cover %.4f of the traced wall time "
                "(must be within 5%%)\n", coverage);
  }
  if (!first_failure.empty()) std::printf("FAILED: %s\n", first_failure.c_str());

  const std::vector<Metric> metrics = {
      {"mediator.parse_us", per_query_us(total("mediator.parse").self_ns), "us"},
      {"expr.simplify_us", per_query_us(total("expr.simplify").self_ns), "us"},
      {"expr.interner_live_nodes", static_cast<double>(after.interner.live_nodes), "count"},
      {"planner.plan_cache_us", per_query_us(total("planner.plan_cache").self_ns), "us"},
      {"planner.plan_cache_hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0.0,
       "fraction"},
      {"planner.plan_cache_misses_per_query", misses / n, "count"},
      {"ssdl.check_ms", per_query_ms(total("ssdl.check").duration_ns), "ms"},
      {"ssdl.check_calls_per_query", per_window(window_counts.check_calls), "count"},
      {"ssdl.check_memo_hit_rate",
       window_counts.check_calls > 0
           ? static_cast<double>(window_counts.check_memo_hits) /
                 static_cast<double>(window_counts.check_calls)
           : 0.0,
       "fraction"},
      {"ssdl.earley_items_per_query", per_window(window_counts.earley_items), "count"},
      {"planner.plan_ms", per_query_ms(total("planner.plan").duration_ns), "ms"},
      {"planner.plan_self_ms", per_query_ms(total("planner.plan").self_ns), "ms"},
      {"plan.validate_us", per_query_us(total("plan.validate").self_ns), "us"},
      {"cost.est_over_true_p50", Median(est_over_true), "ratio"},
      {"exec.execute_ms", per_query_ms(total("exec.execute").duration_ns), "ms"},
      {"exec.combine_self_ms", per_query_ms(total("exec.execute").self_ns), "ms"},
      {"exec.source_queries_per_query", per_window(window_counts.source_calls), "count"},
      {"exec.source_call_ms", per_query_ms(total("exec.source_call").duration_ns), "ms"},
      {"exec.source_wait_ms", per_query_ms(total("exec.source_wait").duration_ns), "ms"},
      {"exec.scan_ms", per_query_ms(total("exec.scan").duration_ns), "ms"},
      {"exec.rows_transferred_per_query", per_window(window_counts.rows_returned), "count"},
      {"exec.rows_scanned_per_row_returned",
       window_counts.rows_returned > 0
           ? static_cast<double>(window_counts.rows_scanned) /
                 static_cast<double>(window_counts.rows_returned)
           : 0.0,
       "ratio"},
      {"exec.source_rejections", static_cast<double>(rejections), "count"},
      {"mediator.federation_plan_ms",
       per_query_ms(total("mediator.federation_plan").duration_ns), "ms"},
      {"mediator.federation_exec_self_ms",
       per_query_ms(total("mediator.federation_execute").self_ns), "ms"},
      {"mediator.join_query_self_ms",
       per_query_ms(total("mediator.join_query").self_ns), "ms"},
      {"planner.join_dp_subsets_per_query", per_window(dp_subsets), "count"},
      {"mediator.bind_edges_per_query", per_window(bind_edges), "count"},
      {"bench.schedule_lag_p99_ms", Percentile(lags, 99.0), "ms"},
      {"bench.queue_wait_p50_ms", Median(waits), "ms"},
      {"trace.latency_p50_ms", Median(traced_ms), "ms"},
      {"trace.self_time_coverage", coverage, "fraction"},
      {"trace_overhead_fraction", Median(traced_ms) / Median(control_ms) - 1.0,
       "fraction"},
  };
  if (!args.trace_out.empty() && !tracer.WriteJsonl(args.trace_out)) {
    std::printf("WARNING: could not write spans to %s\n", args.trace_out.c_str());
  }
  const size_t attempted = traced + control.samples.size() + load.samples.size();
  PrintResult(metrics, correct, attempted, failed);
  return correct ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--smoke] [--corrupt-query <i>] "
                 "[--source-id <id>] [--trace-out <path>] "
                 "[--samples-out <path>]\n",
                 argv[0]);
    return 2;
  }
  std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, args.seed, args.smoke);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("# perfbench %s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
  PrintProvenance(args, workload->config());

  // Set-up, repeated; the median is reported and the last one is kept. A
  // workload that sets up again before every round needs no repeats here.
  const int reps =
      args.smoke || args.trace == 1 || workload->config().reset_each_round ? 1 : 3;
  std::vector<double> setup_times;
  for (int r = 0; r < reps; ++r) {
    const int64_t start = WallNs();
    if (!workload->SetUp()) return 1;
    setup_times.push_back(static_cast<double>(WallNs() - start) / 1e9);
  }
  return args.trace == 1 ? RunTraced(*workload, args)
                         : RunEndToEnd(*workload, args, std::move(setup_times));
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
