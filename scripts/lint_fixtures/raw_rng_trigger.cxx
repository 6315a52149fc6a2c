// Fixture: must trigger [raw-rng].  (.cxx so the format/hygiene globs
// skip fixtures; these files are linted, never compiled.)
#include <cstdlib>
#include <random>

int unseeded_entropy() {
  std::random_device entropy;          // finding: raw-rng
  return static_cast<int>(entropy()) + rand();  // finding: raw-rng
}

// Standard engines outside src/common/rng.hpp, seeded or not.
unsigned long raw_engines(unsigned long seed) {
  std::mt19937 a(static_cast<unsigned>(seed));  // finding: raw-rng
  std::mt19937_64 b(seed);                      // finding: raw-rng
  std::minstd_rand c(1);                        // finding: raw-rng
  std::minstd_rand0 d(1);                       // finding: raw-rng
  std::default_random_engine e(2);              // finding: raw-rng
  std::ranlux48 f(3);                           // finding: raw-rng
  std::ranlux24_base g(3);                      // finding: raw-rng
  std::knuth_b h(4);                            // finding: raw-rng
  std::linear_congruential_engine<unsigned, 16807, 0, 2147483647> i;  // finding: raw-rng
  std::mersenne_twister_engine<unsigned, 32, 624, 397, 31, 0x9908b0df, 11,  // finding: raw-rng
                               0xffffffff, 7, 0x9d2c5680, 15, 0xefc60000,
                               18, 1812433253> j;
  std::subtract_with_carry_engine<unsigned, 24, 10, 24> k;  // finding: raw-rng
  std::discard_block_engine<std::ranlux24_base, 223, 23> l;  // finding: raw-rng
  std::independent_bits_engine<std::knuth_b, 64, unsigned long> m;  // finding: raw-rng
  std::shuffle_order_engine<std::minstd_rand0, 256> n;  // finding: raw-rng
  return a() + b() + c() + d() + e() + f() + g() + h() + i() + j() + k() +
         l() + m() + n();
}
