// Input generation, owned by the benchmark so that the workloads do not
// change when the library's own generators do: correlated tables, range
// predicates, and a Zipf sampler. Every generator draws from a
// std::mt19937_64 seeded by the caller.

#ifndef QDB_E2EBENCH_INPUTS_H_
#define QDB_E2EBENCH_INPUTS_H_

#include <cstdint>
#include <random>
#include <vector>

#include "db/cardinality.h"

namespace e2e {

using Rng = std::mt19937_64;

/// Seed of generator stream `stream` (one per client) under run seed `seed`.
inline uint64_t StreamSeed(uint64_t seed, int stream) {
  return seed * 1000003 + static_cast<uint64_t>(stream);
}

/// Uniform double in [lo, hi).
double Uniform(Rng& rng, double lo, double hi);

/// `rows` × `columns` table with uniform marginals on [0, 1) and pairwise
/// correlation set by one shared latent factor (a Gaussian copula):
/// column c = Φ(ρ·z + √(1−ρ²)·ε_c).
qdb::SyntheticTable CorrelatedTable(int rows, int columns, double rho,
                                    Rng& rng);

/// A range predicate: per column a width in [min_width, 1) and a start.
struct Predicate {
  qdb::DVector lo;
  qdb::DVector hi;
  qdb::DVector Features() const;  ///< lo₀, hi₀, lo₁, hi₁, …
};
Predicate RandomPredicate(int columns, double min_width, Rng& rng);

/// Draws ranks 0..n−1 with P(rank r) ∝ 1/(r+1)^s.
class Zipf {
 public:
  Zipf(int n, double s);
  int Draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace e2e

#endif  // QDB_E2EBENCH_INPUTS_H_
