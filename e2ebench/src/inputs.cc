#include "inputs.h"

#include <algorithm>
#include <cmath>

namespace e2e {

double Uniform(Rng& rng, double lo, double hi) {
  // 53 random bits → [0, 1), independent of the standard library's
  // distribution implementations.
  const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * u;
}

namespace {

double StandardNormal(Rng& rng) {
  // Box–Muller on two uniforms in (0, 1].
  const double u1 = 1.0 - Uniform(rng, 0.0, 1.0);
  const double u2 = Uniform(rng, 0.0, 1.0);
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

}  // namespace

qdb::SyntheticTable CorrelatedTable(int rows, int columns, double rho,
                                    Rng& rng) {
  qdb::SyntheticTable table;
  const double residual = std::sqrt(1.0 - rho * rho);
  for (int r = 0; r < rows; ++r) {
    const double latent = StandardNormal(rng);
    qdb::DVector row(columns);
    for (int c = 0; c < columns; ++c) {
      const double z = rho * latent + residual * StandardNormal(rng);
      row[c] = std::min(0.5 * std::erfc(-z / std::sqrt(2.0)),
                        std::nextafter(1.0, 0.0));
    }
    table.rows.push_back(std::move(row));
  }
  return table;
}

qdb::DVector Predicate::Features() const {
  qdb::DVector features;
  for (size_t c = 0; c < lo.size(); ++c) {
    features.push_back(lo[c]);
    features.push_back(hi[c]);
  }
  return features;
}

Predicate RandomPredicate(int columns, double min_width, Rng& rng) {
  Predicate p;
  for (int c = 0; c < columns; ++c) {
    const double width = Uniform(rng, min_width, 1.0);
    const double start = Uniform(rng, 0.0, 1.0 - width);
    p.lo.push_back(start);
    p.hi.push_back(start + width);
  }
  return p;
}

Zipf::Zipf(int n, double s) {
  double total = 0.0;
  for (int r = 0; r < n; ++r) {
    total += 1.0 / std::pow(r + 1.0, s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

int Zipf::Draw(Rng& rng) const {
  const double u = Uniform(rng, 0.0, 1.0);
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<int>(
      std::min<ptrdiff_t>(it - cdf_.begin(), cdf_.size() - 1));
}

}  // namespace e2e
