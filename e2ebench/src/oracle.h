// Computations made apart from the program, against which the benchmark
// checks every served answer it samples: the closed-form angle-kernel SVM
// decision, a naive dense-matrix state vector for variational circuits, and
// exact row counts for selectivities and q-errors.

#ifndef QDB_E2EBENCH_ORACLE_H_
#define QDB_E2EBENCH_ORACLE_H_

#include <cstdint>
#include <vector>

#include "circuit/circuit.h"
#include "db/cardinality.h"
#include "serve/model_artifact.h"

namespace e2e {

/// bias + Σ coeff·∏ᵢ cos²(s·(xᵢ − svᵢ)/2): the decision value of an
/// RY-angle-encoded fidelity-kernel SVM. Angle encoding gives product
/// states, so the fidelity factors per qubit and needs no simulator.
double AngleKernelDecision(const qdb::serve::ModelArtifact& svm,
                           const qdb::DVector& x);

/// ⟨Z₀⟩ of a fully bound circuit run from |0…0⟩ on a plain
/// std::complex state vector, each gate applied as its dense 2×2 or 4×4
/// matrix. NaN when the circuit holds a gate type this reference does not
/// model (the caller's comparison then fails loudly).
double ReferenceExpectationZ0(const qdb::Circuit& circuit);

/// Rows of `table` with lo[c] <= row[c] < hi[c] in every column.
long CountMatchingRows(const qdb::SyntheticTable& table,
                       const qdb::DVector& lo, const qdb::DVector& hi);

/// max(e/t, t/e) with both selectivities floored at `floor_sel`.
double QErrorOf(double estimate, double truth, double floor_sel = 1e-4);

}  // namespace e2e

#endif  // QDB_E2EBENCH_ORACLE_H_
