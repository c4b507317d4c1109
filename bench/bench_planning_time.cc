// E3 ("Fig 2"): plan-generation efficiency — GenCompact vs GenModular.
//
// The paper's claim: GenCompact generates the same plans as GenModular but
// is far more efficient, because it avoids the rewrite-space explosion
// (commutativity folded into the description closure; associativity and
// copy absorbed by IPG). Wall-clock per Plan() call, same target query.
//
// GenCompact keeps one plan template per query shape on the source handle,
// so its series come in two phases: `Build` plans on a fresh handle each
// iteration (made while the timer is paused), paying Check, the rewrites,
// IPG's build and one cost pass; `Hit` re-plans on one handle, where every
// iteration after the first reuses the template (one cost pass).

#include <benchmark/benchmark.h>

#include <optional>

#include "expr/intern.h"
#include "planner/gen_compact.h"
#include "planner/gen_modular.h"
#include "workload/datasets.h"
#include "workload/random_capability.h"
#include "workload/random_condition.h"

namespace gencompact {
namespace {

struct Env {
  std::unique_ptr<Table> table;
  SourceDescription description{"src", Schema{}};
  std::unique_ptr<SourceHandle> handle;
  ConditionPtr condition;
  AttributeSet attrs;

  explicit Env(size_t atoms) {
    Rng rng(9000 + atoms);
    const Schema schema({{"s1", ValueType::kString},
                         {"s2", ValueType::kString},
                         {"n1", ValueType::kInt},
                         {"n2", ValueType::kInt}});
    table = MakeRandomTable("src", schema, 1000, 12, 60, &rng);
    RandomCapabilityOptions cap_options;
    cap_options.download_probability = 1.0;  // every query plannable
    description = RandomCapability("src", schema, cap_options, &rng);
    handle = std::make_unique<SourceHandle>(description, table.get());
    const std::vector<AttributeDomain> domains = ExtractDomains(*table, 6, &rng);
    RandomConditionOptions cond_options;
    cond_options.num_atoms = atoms;
    condition = RandomCondition(domains, cond_options, &rng);
    attrs.Add(0);
    attrs.Add(2);
  }
};

// One GenCompact plan per iteration: on a fresh handle (`build`) or on the
// env's handle, whose template the first iteration builds (`hit`).
void PlanGenCompact(benchmark::State& state, Env& env, bool build) {
  std::optional<SourceHandle> fresh;
  for (auto _ : state) {
    SourceHandle* handle = env.handle.get();
    if (build) {
      state.PauseTiming();
      fresh.reset();
      fresh.emplace(env.description, env.table.get());
      state.ResumeTiming();
      handle = &*fresh;
    }
    GenCompactPlanner planner(handle);
    benchmark::DoNotOptimize(planner.Plan(env.condition, env.attrs));
  }
  state.counters["template_hits"] =
      static_cast<double>(env.handle->plan_templates()->hits());
}

void BM_GenCompactBuild(benchmark::State& state) {
  Env env(static_cast<size_t>(state.range(0)));
  PlanGenCompact(state, env, /*build=*/true);
}
BENCHMARK(BM_GenCompactBuild)->DenseRange(2, 9)->Unit(benchmark::kMicrosecond);

void BM_GenCompactHit(benchmark::State& state) {
  Env env(static_cast<size_t>(state.range(0)));
  PlanGenCompact(state, env, /*build=*/false);
}
BENCHMARK(BM_GenCompactHit)->DenseRange(2, 9)->Unit(benchmark::kMicrosecond);

// Hash-consing ablation: the same GenCompact planning workload with the
// condition interner on (arg 1 = 1) vs off (arg 1 = 0, fresh uniquely-id'd
// nodes per construction), for template builds (arg 2 = 0) and hits
// (arg 2 = 1). With interning off, the (ConditionId, attrs) memo tables in
// IPG/EPG and the Checker degrade to per-object behavior — structurally
// equal sub-conditions produced by the rewrite no longer share planning
// work — which is exactly the tax the interner removes.
// Compare rows pairwise per atom count: interning/N/1/b vs interning/N/0/b.
void BM_GenCompactInterning(benchmark::State& state) {
  const bool interning_on = state.range(1) == 1;
  std::optional<ScopedInterningDisabled> off;
  if (!interning_on) off.emplace();
  Env env(static_cast<size_t>(state.range(0)));
  const ConditionInterner::Stats before = ConditionInterner::Global().stats();
  PlanGenCompact(state, env, /*build=*/state.range(2) == 0);
  const ConditionInterner::Stats after = ConditionInterner::Global().stats();
  state.counters["interning"] = interning_on ? 1 : 0;
  state.counters["pool_hits"] = static_cast<double>(after.hits - before.hits);
  state.counters["plans_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GenCompactInterning)
    ->ArgsProduct({benchmark::CreateDenseRange(6, 10, /*step=*/1), {1, 0},
                   {0, 1}})
    ->Unit(benchmark::kMicrosecond);

void BM_GenModular(benchmark::State& state) {
  Env env(static_cast<size_t>(state.range(0)));
  // Large rewrite budget so GenModular actually explores its space (the
  // default budget would silently truncate the search and look "fast"
  // while missing plans). `budget_hit=1` marks sizes where even 20k CTs
  // was not enough to close the rewrite space.
  GenModularOptions options;
  options.rewrite.max_cts = 20000;
  bool budget_hit = false;
  double cts = 0;
  for (auto _ : state) {
    GenModularPlanner planner(env.handle.get(), options);
    benchmark::DoNotOptimize(planner.Plan(env.condition, env.attrs));
    budget_hit = planner.stats().rewrite_budget_exhausted;
    cts = static_cast<double>(planner.stats().num_cts);
  }
  state.counters["CTs"] = cts;
  state.counters["budget_hit"] = budget_hit ? 1 : 0;
}
// GenModular's rewrite closure explodes; 6+ atoms take minutes even with
// the truncating budget.
BENCHMARK(BM_GenModular)->DenseRange(2, 5)->Unit(benchmark::kMicrosecond);

// The number of CTs each scheme examines (complexity counter, reported as
// an iteration-invariant metric).
void BM_RewriteSpaceCts(benchmark::State& state) {
  Env env(static_cast<size_t>(state.range(0)));
  size_t gm_cts = 0;
  size_t gc_cts = 0;
  for (auto _ : state) {
    GenModularPlanner gm(env.handle.get());
    benchmark::DoNotOptimize(gm.Plan(env.condition, env.attrs));
    gm_cts = gm.stats().num_cts;
    GenCompactPlanner gc(env.handle.get());
    benchmark::DoNotOptimize(gc.Plan(env.condition, env.attrs));
    gc_cts = gc.stats().num_cts;
  }
  state.counters["GenModular_CTs"] = static_cast<double>(gm_cts);
  state.counters["GenCompact_CTs"] = static_cast<double>(gc_cts);
}
BENCHMARK(BM_RewriteSpaceCts)->DenseRange(2, 6)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace gencompact

BENCHMARK_MAIN();
