// Ablation: allocation-algorithm scalability.
//
// DESIGN.md calls out two implementation choices worth measuring:
//  * the IRT boundary search — the paper's binary search vs the naive
//    linear scan (both produce identical allocations; see tests);
//  * policy cost as the number of tenants m and resource types p grow.
#include <benchmark/benchmark.h>

#include <vector>

#include "alloc/drf.hpp"
#include "alloc/irt.hpp"
#include "alloc/policy.hpp"
#include "alloc/wmmf.hpp"
#include "common/rng.hpp"

namespace {

using namespace rrf;

std::vector<alloc::AllocationEntity> make_entities(std::size_t m,
                                                   std::size_t p,
                                                   ResourceVector* capacity,
                                                   std::uint64_t seed = 11) {
  Rng rng(seed);
  std::vector<alloc::AllocationEntity> entities(m);
  *capacity = ResourceVector(p);
  for (auto& e : entities) {
    e.initial_share = ResourceVector(p);
    e.demand = ResourceVector(p);
    for (std::size_t k = 0; k < p; ++k) {
      e.initial_share[k] = rng.uniform(100.0, 1000.0);
      e.demand[k] = e.initial_share[k] * rng.uniform(0.2, 2.2);
      (*capacity)[k] += e.initial_share[k];
    }
  }
  return entities;
}

void BM_IrtBinarySearch(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  ResourceVector capacity(2);
  const auto entities = make_entities(m, 2, &capacity);
  alloc::IrtOptions options;
  options.search = alloc::IrtOptions::Search::kBinary;
  const alloc::IrtAllocator irt(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(irt.allocate(capacity, entities));
  }
  state.SetComplexityN(static_cast<std::int64_t>(m));
}
BENCHMARK(BM_IrtBinarySearch)->RangeMultiplier(4)->Range(8, 2048)
    ->Complexity(benchmark::oNLogN);

void BM_IrtLinearSearch(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  ResourceVector capacity(2);
  const auto entities = make_entities(m, 2, &capacity);
  alloc::IrtOptions options;
  options.search = alloc::IrtOptions::Search::kLinear;
  const alloc::IrtAllocator irt(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(irt.allocate(capacity, entities));
  }
  state.SetComplexityN(static_cast<std::int64_t>(m));
}
BENCHMARK(BM_IrtLinearSearch)->RangeMultiplier(4)->Range(8, 2048)
    ->Complexity(benchmark::oNLogN);

void BM_PolicyAtScale(benchmark::State& state, alloc::PolicyKind kind) {
  const auto m = static_cast<std::size_t>(state.range(0));
  ResourceVector capacity(2);
  const auto entities = make_entities(m, 2, &capacity);
  const alloc::Allocator& policy = *alloc::policy(kind).allocator;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.allocate(capacity, entities));
  }
}
using enum alloc::PolicyKind;
BENCHMARK_CAPTURE(BM_PolicyAtScale, wmmf, kWmmf)->Arg(64)->Arg(1024);
BENCHMARK_CAPTURE(BM_PolicyAtScale, drf, kDrf)->Arg(64)->Arg(1024);
BENCHMARK_CAPTURE(BM_PolicyAtScale, drf_seq, kDrfSeq)->Arg(64)->Arg(1024);
BENCHMARK_CAPTURE(BM_PolicyAtScale, irt, kIrt)->Arg(64)->Arg(1024);
BENCHMARK_CAPTURE(BM_PolicyAtScale, rrf_sp, kRrfSp)->Arg(64)->Arg(1024);

void BM_IrtResourceTypes(benchmark::State& state) {
  // The algorithms are generic over p up to ResourceVector's limit of 4;
  // the paper uses p = 2.
  const auto p = static_cast<std::size_t>(state.range(0));
  ResourceVector capacity(p);
  const auto entities = make_entities(128, p, &capacity);
  const alloc::IrtAllocator irt;
  for (auto _ : state) {
    benchmark::DoNotOptimize(irt.allocate(capacity, entities));
  }
}
BENCHMARK(BM_IrtResourceTypes)->Arg(2)->Arg(3)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
