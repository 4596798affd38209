// Fixture: raw RNG primitives outside sim/random.* the lint must catch.
// Expected findings: [raw-rng] on each marked line.
#include <cstdlib>
#include <random>

int fixture_raw_rng() {
    std::random_device rd;               // finding: entropy source
    std::mt19937_64 engine(rd());        // finding: engine outside sim/random.*
    std::srand(42);                      // NOLINT — still a finding: srand
    int x = std::rand();                 // finding: std::rand
    nbmg::sim::MersenneTwister64 lazy(42);  // finding: the simulator's engine
    return x + static_cast<int>(engine()) + static_cast<int>(lazy());
}
