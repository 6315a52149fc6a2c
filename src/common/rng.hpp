// Deterministic, splittable random number generation.
//
// Every stochastic component (workload traces, randomized property tests,
// scenario generators) takes an explicit Rng so whole experiments are
// reproducible from a single seed.  `fork(tag)` derives independent child
// streams so adding a consumer never perturbs the others, and
// `for_each_fork` makes a run of forks whose first blocks are seeded in
// lockstep, eight streams side by side, with the same draws.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <utility>

#include "common/error.hpp"

namespace rrf {

/// The output sequence of std::mt19937_64, with the first block of state
/// seeded and twisted lazily.  The std engine seeds all 312 state words
/// and twists all 312 before its first output.  Output k < 156 of the
/// first block reads only seeded words k, k + 1 and k + 156, so a stream
/// that draws d <= 156 numbers here seeds 156 + d words and twists d; most
/// of the simulator's streams (one per VM, or per VM and jitter epoch)
/// draw two to six.  In the first block, word k is twisted just before it
/// is read, with the std twist's arithmetic and in its order; from the
/// second block on, all 312 words twist at once, as in the std engine.
///
/// The first draw reads words 0, 1 and 156, so it needs words 1..156
/// seeded: 156 steps of one chain, each step a multiply that waits for
/// the one before.  Separate engines' chains are independent, so
/// `seed_first_block` runs up to kLockstep of them side by side; the
/// first draw of an engine seeded alone goes through the same kernel
/// with one lane.  From word 157 on, later draws seed lazily.
class LazyMt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Engines `seed_first_block` seeds side by side.
  static constexpr std::size_t kLockstep = 8;

  /// Seeds nothing but word 0 until the first draw.
  explicit LazyMt19937_64(result_type seed) { x_[0] = seed; }

  /// Writes words 1..156 of each of `engines`, at most kLockstep engines
  /// that have not drawn yet, in lockstep.  Their outputs do not change:
  /// these are the words each one's first draw would have seeded.
  static void seed_first_block(std::span<LazyMt19937_64* const> engines) {
    RRF_REQUIRE(engines.size() <= kLockstep,
                "lockstep seeding takes at most kLockstep engines");
    // Lanes without an engine seed a scratch block nobody reads.
    result_type spare[kShift + 1] = {};
    result_type* words[kLockstep] = {};
    for (std::size_t lane = 0; lane < kLockstep; ++lane) {
      words[lane] = spare;
      if (lane >= engines.size()) continue;
      RRF_REQUIRE(engines[lane]->seeded_ == 1,
                  "lockstep seeding needs engines that have not drawn");
      words[lane] = engines[lane]->x_;
    }
    seed_lanes(words);
    for (LazyMt19937_64* engine : engines) engine->seeded_ = kShift + 1;
  }

  // Copies only the words written so far: the rest are indeterminate.
  LazyMt19937_64(const LazyMt19937_64& other) { *this = other; }
  LazyMt19937_64& operator=(const LazyMt19937_64& other) {
    if (this == &other) return *this;
    std::copy_n(other.x_, other.seeded_, x_);
    seeded_ = other.seeded_;
    ready_ = other.ready_;
    next_ = other.next_;
    return *this;
  }

  result_type operator()() {
    if (next_ == ready_) advance();
    result_type z = x_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71D67FFFEDA60000ull;
    z ^= (z << 37) & 0xFFF7EEE000000000ull;
    return z ^ (z >> 43);
  }

  void discard(unsigned long long z) {
    while (z > 0) {
      if (next_ == ready_) advance();
      const std::size_t step = static_cast<std::size_t>(
          std::min<unsigned long long>(z, ready_ - next_));
      next_ += step;
      z -= step;
    }
  }

 private:
  static constexpr std::size_t kWords = 312;
  static constexpr std::size_t kShift = 156;
  static constexpr result_type kLowerMask = (result_type{1} << 31) - 1;

  /// Makes word next_ readable.  In the first block it twists that one
  /// word, seeding first the words the twist reads; once a block is used
  /// up it twists the next one whole, in the std engine's three loops.
  /// Out of line, as the std engine's block twist is: inlined into every
  /// distribution's draw, it made the trace workloads' builds (one long
  /// stream each) about 7% slower.
  [[gnu::noinline]] void advance() {
    if (ready_ == kWords) {
      for (std::size_t k = 0; k < kWords - kShift; ++k) {
        twist(k, k + 1, k + kShift);
      }
      for (std::size_t k = kWords - kShift; k + 1 < kWords; ++k) {
        twist(k, k + 1, k - (kWords - kShift));
      }
      twist(kWords - 1, 0, kShift - 1);
      next_ = 0;
      return;
    }
    // The first draw seeds words 1..156 at once, unless seed_first_block
    // did.  After it, twisting word k < 156 reads words k + 1 and k + 156,
    // seeded by std's recurrence from word k + 155, which is not twisted
    // yet; by k = 156 every word is seeded.
    if (seeded_ == 1) {
      result_type* words[1] = {x_};
      seed_lanes(words);
      seeded_ = kShift + 1;
    }
    for (; seeded_ <= std::min(ready_ + kShift, kWords - 1); ++seeded_) {
      x_[seeded_] = seed_step(x_[seeded_ - 1], seeded_);
    }
    const std::size_t k = ready_++;
    twist(k, k + 1 < kWords ? k + 1 : 0,
          k < kWords - kShift ? k + kShift : k - (kWords - kShift));
  }

  /// The std seeding recurrence: word i from word i - 1.
  static result_type seed_step(result_type prev, std::size_t i) {
    return 6364136223846793005ull * (prev ^ (prev >> 62)) + i;
  }

  /// Seeds words 1..156 of each lane's state from its word 0, step i of
  /// every lane before step i + 1 of any, so the lanes' multiplies
  /// overlap.  The lane count is a template argument so each lane's last
  /// word stays in a register; a stream seeded alone takes one lane, as
  /// running all eight for it made 3,200 lone first draws 2.8 times as
  /// slow.
  template <std::size_t Lanes>
  static void seed_lanes(result_type* const (&words)[Lanes]) {
    result_type last[Lanes] = {};
    for (std::size_t lane = 0; lane < Lanes; ++lane) {
      last[lane] = words[lane][0];
    }
    for (std::size_t i = 1; i <= kShift; ++i) {
      for (std::size_t lane = 0; lane < Lanes; ++lane) {
        last[lane] = seed_step(last[lane], i);
        words[lane][i] = last[lane];
      }
    }
  }

  /// Word k's step of the std twist, which runs k = 0..311 in place: word
  /// k mixes with word `next` (k + 1; the new word 0 for the last word)
  /// and word `far` (k + 156; the new word k - 156 from k = 156 on).
  void twist(std::size_t k, std::size_t next, std::size_t far) {
    const result_type y = (x_[k] & ~kLowerMask) | (x_[next] & kLowerMask);
    x_[k] = x_[far] ^ (y >> 1) ^ ((y & 1) != 0 ? 0xB5026F5AA96619E9ull : 0);
  }

  result_type x_[kWords];
  /// Words [0, seeded_) have been written, seeded or twisted.
  std::size_t seeded_ = 1;
  /// Words [0, ready_) of the current block are twisted.
  std::size_t ready_ = 0;
  /// The word the next draw tempers.
  std::size_t next_ = 0;
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed), seed_(seed) {}

  std::uint64_t seed() const { return seed_; }

  /// Derive an independent stream keyed by `tag`: the SplitMix64
  /// finalizer of seed + 0x9E3779B97F4A7C15 * (tag + 1).
  Rng fork(std::uint64_t tag) const {
    std::uint64_t z = seed_ + 0x9E3779B97F4A7C15ull * (tag + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return Rng(z ^ (z >> 31));
  }

  /// Calls `use(j, fork(first_tag + j))` for j = 0, 1, ..., n - 1 in
  /// order.  The forks are made kLockstep at a time on the stack and their
  /// first blocks seeded in lockstep, so a run of forks costs less than
  /// forking one by one and draws the same numbers.
  template <typename Use>
  void for_each_fork(std::uint64_t first_tag, std::size_t n,
                     Use&& use) const {
    constexpr std::size_t kLanes = LazyMt19937_64::kLockstep;
    for (std::size_t j = 0; j < n; j += kLanes) {
      std::array<Rng, kLanes> batch =
          fork_lanes(first_tag + j, std::make_index_sequence<kLanes>{});
      const std::size_t count = std::min(kLanes, n - j);
      LazyMt19937_64* engines[kLanes] = {};
      for (std::size_t lane = 0; lane < count; ++lane) {
        engines[lane] = &batch[lane].engine_;
      }
      LazyMt19937_64::seed_first_block({engines, count});
      for (std::size_t lane = 0; lane < count; ++lane) {
        use(j + lane, batch[lane]);
      }
    }
  }

  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  double normal(double mu, double sigma) {
    return std::normal_distribution<double>(mu, sigma)(engine_);
  }

  /// Truncated normal: resampled into [lo, hi] (clamped after 16 attempts).
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

  LazyMt19937_64& engine() { return engine_; }

 private:
  template <std::size_t... Lane>
  std::array<Rng, sizeof...(Lane)> fork_lanes(
      std::uint64_t first_tag, std::index_sequence<Lane...>) const {
    return {fork(first_tag + Lane)...};
  }

  LazyMt19937_64 engine_;
  std::uint64_t seed_;
};

}  // namespace rrf
