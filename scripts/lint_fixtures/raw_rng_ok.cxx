// Fixture: must pass [raw-rng].  Seeded Rng use, rand-like identifiers,
// engine names outside code and suppressed lines are all fine.
#include <cstdlib>
#include <random>

struct Rng {
  explicit Rng(unsigned seed) : state(seed) {}
  unsigned state;
  Rng& engine() { return *this; }
};

int seeded_randomness() {
  Rng rng(42);
  int spread = 3;            // "spread(" does not match rand(
  int operand = spread + 1;  // identifier containing "rand" is fine
  int entropy = rand();      // determinism-lint: allow(raw-rng)
  // rand() in a comment is fine, as is "rand()" in a string:
  const char* label = "rand()";
  return operand + entropy + static_cast<int>(label[0]) + rng.state;
}

// Rng's engine returns std::mt19937_64's draws; naming the std engine in
// a comment or a string, or a distribution over Rng's engine, is fine.
double through_rng() {
  Rng rng(7);
  const char* reference = "std::mt19937_64";
  Rng& engine = rng.engine();  // an identifier named engine is fine
  int mt19937_64_draws = 2;    // so is one containing an engine's name
  std::mt19937_64 reference_engine(1);  // rrf-lint: allow(raw-rng)
  return static_cast<double>(reference[0] + engine.state + mt19937_64_draws +
                             reference_engine() % 2);
}
