#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The three benchmark workloads. Each owns a default-configured Mediator
// (only num_threads, cache_capacity and cache_shards are set), the sources it
// registers, and a deterministic query generator: the i-th query of a stream
// is a pure function of (seed, stream, i). The mediator receives nothing but
// the rendered SQL.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mediator/mediator.h"
#include "oracle.h"

namespace perfbench {

/// Independent query streams of one workload. Streams never share a query
/// text where the workload promises new constants (form_new_constants), so
/// warm-up never plans a timed query and the traced and control phases of a
/// traced run never hit each other's plans.
enum class Stream { kTimed = 0, kTraced = 1, kControl = 2, kWarmup = 3 };

struct BenchQuery {
  QuerySpec spec;
  std::string sql;
  AnswerDigest expected;  ///< oracle answer, computed when generated
};

struct WorkloadConfig {
  std::string name;
  /// Open loop: a generator thread offers `rate_qps` on a fixed schedule to
  /// `clients` client threads. Closed loop: one client, back to back.
  bool open_loop = false;
  double rate_qps = 0.0;
  size_t clients = 1;
  /// The percentile reported as latency_tail_ms (chosen so a run at the
  /// configured --seconds leaves at least ten samples beyond it).
  double tail_percentile = 99.0;
  /// Count metrics (true cost, per-layer counts) and peak RSS are taken
  /// over this fixed prefix of the stream, so they repeat exactly for a
  /// seed however fast the build is.
  size_t count_window = 0;
  /// Queries the traced run mirrors at minimum.
  size_t trace_window = 0;
  /// Closed loop: the timed run is made of whole rounds of this many
  /// queries; it stops only between rounds.
  size_t round_queries = 0;
  /// Closed loop: every round after the first starts on a freshly set-up
  /// mediator, so each round sees the same mediator state however many
  /// rounds a run fits.
  bool reset_each_round = false;
  /// Every query carries constants never seen before, so no query text
  /// recurs; otherwise the traced run's untraced control phase replays the
  /// traced queries themselves.
  bool fresh_constants = false;
  /// Simulated round trip each source charges.
  int64_t source_latency_us = 0;
  gencompact::Mediator::Options options;
  /// Human-readable workload parameters for the provenance record.
  std::vector<std::pair<std::string, std::string>> params;
};

class Workload {
 public:
  virtual ~Workload() = default;

  const WorkloadConfig& config() const { return config_; }
  gencompact::Mediator& mediator() { return *mediator_; }
  const Oracle& oracle() const { return oracle_; }

  /// (Re)builds everything from the seed: data generation, source
  /// registration (description closure, statistics), query pools and their
  /// oracle answers, then warm-up through Mediator::Query. Returns false
  /// if a warm-up query failed.
  bool SetUp();

  /// The i-th query of `stream`; deterministic in (seed, stream, i). Any
  /// generation and oracle work happens here, outside timed regions.
  virtual const BenchQuery& Query(Stream stream, size_t i) = 0;

  /// Number of warm-up queries (stream kWarmup, indices 0..n-1).
  virtual size_t warmup_queries() const = 0;

  /// Source names in registration order.
  const std::vector<std::string>& sources() const { return sources_; }

 protected:
  Workload(WorkloadConfig config, uint64_t seed, bool smoke)
      : config_(std::move(config)), seed_(seed), smoke_(smoke) {}

  /// Registers sources and builds query pools on a fresh mediator_.
  virtual void Build() = 0;

  /// Registers a dataset's source with the mediator and the oracle.
  void Register(gencompact::SourceDescription description,
                std::unique_ptr<gencompact::Table> table);
  BenchQuery Finish(QuerySpec spec) const;

  WorkloadConfig config_;
  uint64_t seed_;
  bool smoke_;
  std::unique_ptr<gencompact::Mediator> mediator_;
  Oracle oracle_;
  std::vector<std::string> sources_;
};

/// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool smoke);

/// The workload names, in BENCHMARK.json order.
std::vector<std::string> WorkloadNames();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
