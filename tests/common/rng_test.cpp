// LazyMt19937_64 against std::mt19937_64 in the same binary: every output,
// through every path (fresh seeds, lockstep seeding, discard, copies taken
// mid-block, each Rng method, fork chains and batches, std::shuffle), must
// be the std engine's bit for bit.  The first block's boundaries sit at
// outputs 155/156 (the twist starts reading new words) and 311/312 (the
// first whole-block twist).
#include <algorithm>
#include <concepts>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace rrf {
namespace {

static_assert(std::uniform_random_bit_generator<LazyMt19937_64>);
static_assert(LazyMt19937_64::min() == std::mt19937_64::min());
static_assert(LazyMt19937_64::max() == std::mt19937_64::max());
static_assert(std::is_same_v<LazyMt19937_64::result_type,
                             std::mt19937_64::result_type>);

/// Rng's code as it was over std::mt19937_64, under another name.
class StdRng {
 public:
  explicit StdRng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  std::uint64_t seed() const { return seed_; }

  StdRng fork(std::uint64_t tag) const {
    std::uint64_t z = seed_ + 0x9E3779B97F4A7C15ull * (tag + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return StdRng(z ^ (z >> 31));
  }

  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  double normal(double mu, double sigma) {
    return std::normal_distribution<double>(mu, sigma)(engine_);
  }

  double normal_in(double mu, double sigma, double lo, double hi) {
    for (int i = 0; i < 16; ++i) {
      const double x = normal(mu, sigma);
      if (x >= lo && x <= hi) return x;
    }
    const double x = normal(mu, sigma);
    return x < lo ? lo : (x > hi ? hi : x);
  }

  double exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }

  bool bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uint64_t seed_;
};

constexpr int kOutputs = 2000;  // crosses 155/156, 311/312 and 623/624

/// Compares the next `count` outputs of both engines; `what` names the
/// case and the first differing output.
void expect_same_outputs(LazyMt19937_64& lazy, std::mt19937_64& ref,
                         int count, const std::string& what) {
  for (int i = 0; i < count; ++i) {
    const std::uint64_t want = ref();
    const std::uint64_t got = lazy();
    if (got != want) {
      ADD_FAILURE() << what << ": output " << i << " is " << got
                    << ", std::mt19937_64 gives " << want;
      return;
    }
  }
}

std::vector<std::uint64_t> test_seeds() {
  std::vector<std::uint64_t> seeds{0, 1, 42, ~std::uint64_t{0}};
  std::mt19937_64 pick(20240917);
  for (int i = 0; i < 1000; ++i) seeds.push_back(pick());
  return seeds;
}

TEST(LazyMt, RawOutputsMatchTheStdEngine) {
  for (const std::uint64_t seed : test_seeds()) {
    LazyMt19937_64 lazy(seed);
    std::mt19937_64 ref(seed);
    expect_same_outputs(lazy, ref, kOutputs, "seed " + std::to_string(seed));
  }
}

/// Seeds `engines` through the lockstep kernel, kLockstep at a time.
void seed_in_lockstep(std::vector<LazyMt19937_64>& engines) {
  constexpr std::size_t kLanes = LazyMt19937_64::kLockstep;
  for (std::size_t first = 0; first < engines.size(); first += kLanes) {
    std::vector<LazyMt19937_64*> batch;
    for (std::size_t i = first; i < std::min(first + kLanes, engines.size());
         ++i) {
      batch.push_back(&engines[i]);
    }
    LazyMt19937_64::seed_first_block(batch);
  }
}

// Batches of 1 to 17 engines (the last chunk of a batch past eight is
// partial), with seeds 0, 1, 42 and 2^64 - 1 moved through every lane and
// seeded-random ones around them.
TEST(LazyMt, LockstepSeedingMatchesTheStdEngine) {
  const std::vector<std::uint64_t> seeds = test_seeds();
  for (std::size_t n = 1; n <= 17; ++n) {
    for (std::size_t shift = 0; shift < n; ++shift) {
      // Lane `shift + i` holds seeds[i] for i = 0..3.
      std::vector<std::uint64_t> lane_seeds;
      std::vector<LazyMt19937_64> engines;
      for (std::size_t lane = 0; lane < n; ++lane) {
        lane_seeds.push_back(
            seeds[(lane + seeds.size() - shift) % seeds.size()]);
        engines.emplace_back(lane_seeds.back());
      }
      seed_in_lockstep(engines);
      for (std::size_t lane = 0; lane < n; ++lane) {
        std::mt19937_64 ref(lane_seeds[lane]);
        expect_same_outputs(engines[lane], ref, kOutputs,
                            "batch of " + std::to_string(n) + ", lane " +
                                std::to_string(lane) + ", seed " +
                                std::to_string(lane_seeds[lane]));
      }
    }
  }
}

// A copy taken right after lockstep seeding, before any draw, continues
// the stream as the original does.
TEST(LazyMt, CopiesTakenAfterLockstepSeedingContinueTheStream) {
  std::vector<LazyMt19937_64> engines;
  for (std::uint64_t seed = 0; seed < 11; ++seed) engines.emplace_back(seed);
  seed_in_lockstep(engines);
  for (std::uint64_t seed = 0; seed < engines.size(); ++seed) {
    LazyMt19937_64 copy(engines[seed]);
    LazyMt19937_64 assigned(~seed);
    assigned.discard(1000);  // every state word holds another stream
    assigned = engines[seed];
    std::mt19937_64 ref(seed);
    std::mt19937_64 ref_copy(seed);
    std::mt19937_64 ref_assigned(seed);
    const std::string what = "seed " + std::to_string(seed);
    expect_same_outputs(copy, ref_copy, kOutputs, what + ", copy");
    expect_same_outputs(engines[seed], ref, kOutputs, what + ", original");
    expect_same_outputs(assigned, ref_assigned, kOutputs,
                        what + ", assigned");
  }
}

// Lockstep seeding writes words a drawn engine already holds, so an
// engine that has drawn, or was seeded in lockstep already, is refused,
// and so is a batch wider than the kernel.
TEST(LazyMt, LockstepSeedingRefusesAnEngineThatHasDrawn) {
  LazyMt19937_64 fresh(3);
  LazyMt19937_64 drawn(4);
  drawn();
  LazyMt19937_64* with_drawn[] = {&fresh, &drawn};
  EXPECT_THROW(LazyMt19937_64::seed_first_block(with_drawn),
               PreconditionError);

  std::vector<LazyMt19937_64> seeded(LazyMt19937_64::kLockstep,
                                     LazyMt19937_64(5));
  seed_in_lockstep(seeded);
  for (LazyMt19937_64& engine : seeded) {
    LazyMt19937_64* again[] = {&engine};
    EXPECT_THROW(LazyMt19937_64::seed_first_block(again), PreconditionError);
  }

  std::vector<LazyMt19937_64> wide(LazyMt19937_64::kLockstep + 1,
                                   LazyMt19937_64(6));
  std::vector<LazyMt19937_64*> too_many;
  for (LazyMt19937_64& engine : wide) too_many.push_back(&engine);
  EXPECT_THROW(LazyMt19937_64::seed_first_block(too_many), PreconditionError);
}

// Discarding on both sides of each block boundary, from a fresh engine and
// from one that has already drawn into its first block.
TEST(LazyMt, DiscardMatchesTheStdEngine) {
  const unsigned long long counts[] = {0,   1,   2,   154, 155, 156,
                                       157, 310, 311, 312, 313, 623,
                                       624, 625, 936, 5000};
  for (const std::uint64_t seed : {std::uint64_t{5}, ~std::uint64_t{0}}) {
    for (const int drawn : {0, 1, 100, 155, 156, 311, 312}) {
      for (const unsigned long long n : counts) {
        LazyMt19937_64 lazy(seed);
        std::mt19937_64 ref(seed);
        for (int i = 0; i < drawn; ++i) {
          lazy();
          ref();
        }
        lazy.discard(n);
        ref.discard(n);
        expect_same_outputs(lazy, ref, 700,
                            "seed " + std::to_string(seed) + " drew " +
                                std::to_string(drawn) + " discard " +
                                std::to_string(n));
      }
    }
  }
}

// A copy taken at any point of the first block continues both streams
// as the std engine does, whichever of the two draws first.
TEST(LazyMt, CopiesTakenMidBlockContinueTheStream) {
  for (const int drawn : {0, 1, 2, 3, 100, 154, 155, 156, 157, 311, 312,
                          313, 700}) {
    const std::string what = "copy after " + std::to_string(drawn);
    LazyMt19937_64 lazy(99);
    std::mt19937_64 ref(99);
    for (int i = 0; i < drawn; ++i) {
      lazy();
      ref();
    }
    LazyMt19937_64 copy(lazy);
    std::mt19937_64 ref_copy(ref);
    expect_same_outputs(lazy, ref, kOutputs, what + ", original");
    expect_same_outputs(copy, ref_copy, kOutputs, what + ", copy");
  }
}

// Copy-assigning a partly drawn engine over one whose 312 state words all
// hold another stream's state leaves those words behind the words copied.
// Any read of a word the assigned stream has not written itself would
// then show as a wrong output.
TEST(LazyMt, NeverReadsAStateWordItHasNotWritten) {
  for (const int drawn : {0, 1, 2, 77, 155, 156, 200, 311}) {
    LazyMt19937_64 source(1234);
    std::mt19937_64 ref(1234);
    for (int i = 0; i < drawn; ++i) {
      source();
      ref();
    }
    LazyMt19937_64 target(~std::uint64_t{0} - 7);
    target.discard(1000);  // every state word written
    target = source;
    expect_same_outputs(target, ref, kOutputs,
                        "assigned after " + std::to_string(drawn));
  }
}

// Each Rng method draws through the std distributions exactly as the
// std engine did: interleaved calls over long and short streams.
TEST(LazyMt, EveryRngMethodMatchesTheStdEngine) {
  for (const std::uint64_t seed : test_seeds()) {
    Rng lazy(seed);
    StdRng ref(seed);
    const int calls = seed % 10 == 0 ? 600 : 6;
    for (int i = 0; i < calls; ++i) {
      ASSERT_EQ(lazy.uniform(-2.5, 7.0), ref.uniform(-2.5, 7.0)) << seed;
      ASSERT_EQ(lazy.uniform_int(-3, 1000), ref.uniform_int(-3, 1000)) << seed;
      ASSERT_EQ(lazy.normal(1.0, 0.3), ref.normal(1.0, 0.3)) << seed;
      ASSERT_EQ(lazy.normal_in(1.0, 0.5, 0.9, 1.1),
                ref.normal_in(1.0, 0.5, 0.9, 1.1))
          << seed;
      ASSERT_EQ(lazy.exponential(0.25), ref.exponential(0.25)) << seed;
      ASSERT_EQ(lazy.bernoulli(0.3), ref.bernoulli(0.3)) << seed;
    }
  }
}

// Forks of forks, the way the workloads key their streams (per tenant,
// per VM, per epoch and VM), and a parent drawn from between forks.
TEST(LazyMt, ForkChainsMatchTheStdEngine) {
  for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{77},
                                   ~std::uint64_t{0}}) {
    Rng lazy(seed);
    StdRng ref(seed);
    for (std::uint64_t a = 0; a < 8; ++a) {
      Rng lazy_a = lazy.fork(1000 + a);
      StdRng ref_a = ref.fork(1000 + a);
      for (std::uint64_t b = 0; b < 8; ++b) {
        Rng lazy_b = lazy_a.fork(b * 1000 + a);
        StdRng ref_b = ref_a.fork(b * 1000 + a);
        ASSERT_EQ(lazy_b.seed(), ref_b.seed());
        ASSERT_EQ(lazy_b.uniform(0.0, 1.0), ref_b.uniform(0.0, 1.0));
        ASSERT_EQ(lazy_b.normal_in(1.0, 0.1, 0.25, 1.75),
                  ref_b.normal_in(1.0, 0.1, 0.25, 1.75));
        ASSERT_EQ(lazy_b.fork(9).uniform(-1.0, 1.0),
                  ref_b.fork(9).uniform(-1.0, 1.0));
      }
      ASSERT_EQ(lazy.uniform(0.0, 1.0), ref.uniform(0.0, 1.0));
    }
  }
}

// for_each_fork hands out fork(first_tag + j) in order of j, batches of
// any size drawing what forks made one by one draw.
TEST(LazyMt, ForkBatchesMatchForkingOneByOne) {
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{42},
                                   ~std::uint64_t{0}}) {
    const Rng lazy(seed);
    const StdRng ref(seed);
    for (std::size_t n = 0; n <= 17; ++n) {
      const std::uint64_t first_tag = n * 1000;
      std::size_t next = 0;
      lazy.for_each_fork(first_tag, n, [&](std::size_t j, Rng& fork) {
        ASSERT_EQ(j, next++);
        StdRng want = ref.fork(first_tag + j);
        ASSERT_EQ(fork.seed(), want.seed());
        ASSERT_EQ(fork.uniform(0.0, 1.0), want.uniform(0.0, 1.0));
        ASSERT_EQ(fork.normal_in(1.0, 0.1, 0.25, 1.75),
                  want.normal_in(1.0, 0.1, 0.25, 1.75));
        for (int i = 0; i < kOutputs; ++i) {
          ASSERT_EQ(fork.engine()(), want.engine()())
              << "seed " << seed << ", batch of " << n << ", fork " << j
              << ", output " << i;
        }
      });
      EXPECT_EQ(next, n);
    }
  }
}

TEST(LazyMt, ShuffleThroughEngineMatchesTheStdEngine) {
  for (const std::size_t n : {2u, 6u, 100u, 5000u}) {
    std::vector<int> lazy_order(n);
    std::iota(lazy_order.begin(), lazy_order.end(), 0);
    std::vector<int> ref_order = lazy_order;
    Rng lazy(202);
    StdRng ref(202);
    for (int round = 0; round < 3; ++round) {
      std::shuffle(lazy_order.begin(), lazy_order.end(), lazy.engine());
      std::shuffle(ref_order.begin(), ref_order.end(), ref.engine());
      ASSERT_EQ(lazy_order, ref_order) << "n " << n << " round " << round;
    }
  }
}

}  // namespace
}  // namespace rrf
