#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>

namespace e2e {

namespace {

using C = std::complex<double>;

/// Angle of a bound gate parameter; NaN if it is still symbolic.
double Angle(const qdb::Gate& gate, size_t i) {
  const qdb::ParamExpr& p = gate.params.at(i);
  return p.is_constant() ? p.offset : std::numeric_limits<double>::quiet_NaN();
}

/// Applies a 2×2 matrix to qubit `q` (bit q of the basis index).
void Apply1(std::vector<C>& psi, int q, const C m[2][2]) {
  const size_t bit = size_t{1} << q;
  for (size_t i = 0; i < psi.size(); ++i) {
    if (i & bit) continue;
    const C a0 = psi[i];
    const C a1 = psi[i | bit];
    psi[i] = m[0][0] * a0 + m[0][1] * a1;
    psi[i | bit] = m[1][0] * a0 + m[1][1] * a1;
  }
}

/// Applies a 4×4 matrix to qubits (a, b); its local basis index is
/// bit(a) + 2·bit(b).
void Apply2(std::vector<C>& psi, int a, int b, const C m[4][4]) {
  const size_t ba = size_t{1} << a;
  const size_t bb = size_t{1} << b;
  for (size_t i = 0; i < psi.size(); ++i) {
    if ((i & ba) || (i & bb)) continue;
    const size_t idx[4] = {i, i | ba, i | bb, i | ba | bb};
    C in[4];
    for (int k = 0; k < 4; ++k) in[k] = psi[idx[k]];
    for (int r = 0; r < 4; ++r) {
      C acc = 0.0;
      for (int k = 0; k < 4; ++k) acc += m[r][k] * in[k];
      psi[idx[r]] = acc;
    }
  }
}

}  // namespace

double AngleKernelDecision(const qdb::serve::ModelArtifact& svm,
                           const qdb::DVector& x) {
  double decision = svm.bias;
  for (const auto& sv : svm.support_vectors) {
    double fidelity = 1.0;
    for (size_t i = 0; i < x.size(); ++i) {
      const double c = std::cos(svm.kernel_scale * (x[i] - sv.features[i]) / 2);
      fidelity *= c * c;
    }
    decision += sv.coeff * fidelity;
  }
  return decision;
}

double ReferenceExpectationZ0(const qdb::Circuit& circuit) {
  const int n = circuit.num_qubits();
  std::vector<C> psi(size_t{1} << n, C(0.0));
  psi[0] = 1.0;
  const C i1(0.0, 1.0);
  for (const qdb::Gate& g : circuit.gates()) {
    switch (g.type) {
      case qdb::GateType::kRY: {
        const double t = Angle(g, 0) / 2;
        const C m[2][2] = {{std::cos(t), -std::sin(t)},
                           {std::sin(t), std::cos(t)}};
        Apply1(psi, g.qubits[0], m);
        break;
      }
      case qdb::GateType::kRZ: {
        const double t = Angle(g, 0) / 2;
        const C m[2][2] = {{std::exp(-i1 * t), 0.0}, {0.0, std::exp(i1 * t)}};
        Apply1(psi, g.qubits[0], m);
        break;
      }
      case qdb::GateType::kRX: {
        const double t = Angle(g, 0) / 2;
        const C m[2][2] = {{std::cos(t), -i1 * std::sin(t)},
                           {-i1 * std::sin(t), std::cos(t)}};
        Apply1(psi, g.qubits[0], m);
        break;
      }
      case qdb::GateType::kH: {
        const double r = 1.0 / std::sqrt(2.0);
        const C m[2][2] = {{r, r}, {r, -r}};
        Apply1(psi, g.qubits[0], m);
        break;
      }
      case qdb::GateType::kCX: {
        // Control qubits[0] (local bit 0), target qubits[1] (local bit 1):
        // swaps |c=1,t=0⟩ (index 1) and |c=1,t=1⟩ (index 3).
        const C m[4][4] = {{1, 0, 0, 0}, {0, 0, 0, 1}, {0, 0, 1, 0},
                           {0, 1, 0, 0}};
        Apply2(psi, g.qubits[0], g.qubits[1], m);
        break;
      }
      case qdb::GateType::kCZ: {
        const C m[4][4] = {{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0},
                           {0, 0, 0, -1}};
        Apply2(psi, g.qubits[0], g.qubits[1], m);
        break;
      }
      default:
        return std::numeric_limits<double>::quiet_NaN();
    }
  }
  double z = 0.0;
  for (size_t i = 0; i < psi.size(); ++i) {
    z += (i & 1 ? -1.0 : 1.0) * std::norm(psi[i]);
  }
  return z;
}

long CountMatchingRows(const qdb::SyntheticTable& table,
                       const qdb::DVector& lo, const qdb::DVector& hi) {
  long count = 0;
  for (const auto& row : table.rows) {
    bool match = true;
    for (size_t c = 0; c < lo.size(); ++c) {
      if (!(row[c] >= lo[c] && row[c] < hi[c])) {
        match = false;
        break;
      }
    }
    count += match ? 1 : 0;
  }
  return count;
}

double QErrorOf(double estimate, double truth, double floor_sel) {
  const double e = std::max(estimate, floor_sel);
  const double t = std::max(truth, floor_sel);
  return std::max(e / t, t / e);
}

}  // namespace e2e
