// The 12-qubit compute layers, probed in cardest_fleet's traced run: a
// 12-qubit RY-angle fidelity-kernel SVM and a 12-qubit angle-encoded VQC
// that classify 6-column range predicates as index scan (+1) vs full scan
// (−1), by whether the exact selectivity on a correlated table falls below
// the training set's median. Both are trained, saved as binary artifacts
// and loaded through a registry; their answers are checked against the
// closed-form kernel and the reference state vector.
//
// They are probed rather than served under closed-loop load: served to
// four clients, their CPU-bound wall-clock figures swung up to 4× between
// runs on the 4-CPU host, past any bound the benchmark may set (README.md).

#include <cmath>
#include <cstdio>

#include "classical/svm.h"
#include "encoding/encodings.h"
#include "kernel/quantum_kernel.h"
#include "oracle.h"
#include "serve/servable.h"
#include "sim/statevector_simulator.h"
#include "store/binary_format.h"
#include "variational/vqc.h"
#include "workloads.h"

namespace e2e {

namespace {

constexpr uint64_t kDataSeed = 0xC1A5'5120'0001ull;
constexpr int kColumns = 6;  // lo/hi per column → 12 features, 12 qubits.
constexpr int kRows = 8000;
constexpr double kRho = 0.8;
constexpr int kTrainQueries = 64;
constexpr double kMinWidth = 0.3;
constexpr double kKernelScale = 2.0;
constexpr int kAccuracyQueries = 256;

struct Data {
  qdb::SyntheticTable table;
  qdb::Dataset train;
  double tau = 0.0;  ///< Selectivity below which an index scan wins.
};

Data MakeData() {
  Data d;
  Rng rng(kDataSeed);
  d.table = CorrelatedTable(kRows, kColumns, kRho, rng);
  std::vector<double> selectivity;
  for (int i = 0; i < kTrainQueries; ++i) {
    const Predicate p = RandomPredicate(kColumns, kMinWidth, rng);
    d.train.features.push_back(p.Features());
    selectivity.push_back(
        static_cast<double>(CountMatchingRows(d.table, p.lo, p.hi)) / kRows);
  }
  d.tau = Median(selectivity);
  for (double s : selectivity) d.train.labels.push_back(s < d.tau ? 1 : -1);
  return d;
}

/// Trains the SVM and the VQC, reporting train.svm_s and train.vqc_s.
qdb::Status Train(const Data& data, qdb::serve::ModelArtifact& svm_artifact,
                  qdb::serve::ModelArtifact& vqc_artifact, Report& report) {
  auto start = Clock::now();
  qdb::FidelityQuantumKernel kernel = qdb::MakeAngleKernel(kKernelScale);
  QDB_ASSIGN_OR_RETURN(qdb::Matrix gram, kernel.GramMatrix(data.train.features));
  qdb::SvmOptions svm_options;
  svm_options.kernel = qdb::SvmKernel::kPrecomputed;
  svm_options.c = 4.0;
  QDB_ASSIGN_OR_RETURN(qdb::Svm svm,
                       qdb::Svm::Train(data.train, svm_options, &gram));
  svm_artifact = qdb::serve::MakeKernelSvmArtifact(
      svm, data.train, qdb::serve::KernelEncodingKind::kAngle, kKernelScale,
      /*kernel_reps=*/2, "qsvm12");
  report.Metric("train.svm_s", SecondsSince(start), "s");

  start = Clock::now();
  qdb::VqcOptions vqc_options;
  vqc_options.ansatz_layers = 2;
  vqc_options.feature_scale = M_PI;
  vqc_options.adam.max_iterations = 24;
  vqc_options.adam.learning_rate = 0.1;
  QDB_ASSIGN_OR_RETURN(qdb::VqcClassifier vqc,
                       qdb::VqcClassifier::Train(data.train, vqc_options));
  vqc_artifact = qdb::serve::MakeVqcArtifact(vqc, "vqc12");
  report.Metric("train.vqc_s", SecondsSince(start), "s");
  return qdb::Status::OK();
}

/// Checks `values` (RunBatch of `svm` and `vqc` over `inputs`) against the
/// closed-form kernel decision and the reference state vector.
void CheckAnswers(const qdb::serve::ModelArtifact& svm,
                  const qdb::serve::ModelArtifact& vqc,
                  const std::vector<qdb::DVector>& inputs,
                  const std::vector<qdb::serve::InferenceValue>& svm_values,
                  const std::vector<qdb::serve::InferenceValue>& vqc_values,
                  Report& report) {
  long wrong = 0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    const double svm_ref = AngleKernelDecision(svm, inputs[i]);
    auto circuit = qdb::serve::BuildBoundInferenceCircuit(vqc, inputs[i]);
    const double vqc_ref =
        circuit.ok() ? ReferenceExpectationZ0(circuit.value()) : std::nan("");
    const bool svm_ok = std::abs(svm_ref - svm_values[i].value) <=
                        1e-9 * std::max(1.0, std::abs(svm_ref));
    const bool vqc_ok = std::abs(vqc_ref - vqc_values[i].value) <= 1e-9;
    if (!svm_ok || !vqc_ok) {
      if (wrong++ == 0) {
        char what[200];
        std::snprintf(what, sizeof(what),
                      "qsvm12 served %.17g (closed form %.17g), vqc12 served "
                      "%.17g (reference state vector %.17g)",
                      svm_values[i].value, svm_ref, vqc_values[i].value,
                      vqc_ref);
        report.Fail(what);
      }
    }
  }
  if (wrong > 0) {
    report.Fail(std::to_string(wrong) + " of " +
                std::to_string(inputs.size()) +
                " 12-qubit inputs got a wrong answer");
  }
}

}  // namespace

void ProbeClassifiers(const Args& args, Report& report) {
  const Data data = MakeData();
  qdb::serve::ModelArtifact svm_artifact, vqc_artifact;
  if (auto s = Train(data, svm_artifact, vqc_artifact, report); !s.ok()) {
    report.Fail("12-qubit training failed: " + s.ToString());
    return;
  }
  qdb::serve::ModelRegistry registry;
  for (const auto* artifact : {&svm_artifact, &vqc_artifact}) {
    const std::string path = args.work_dir + "/" + artifact->name + ".qdbm";
    auto loaded = qdb::store::SaveArtifact(*artifact, path,
                                           qdb::store::ArtifactFormat::kBinary);
    if (!loaded.ok() || !registry.LoadModel(path).ok()) {
      report.Fail("cannot save and load " + artifact->name);
      return;
    }
  }
  auto svm = registry.Lookup(svm_artifact.name);
  auto vqc = registry.Lookup(vqc_artifact.name);
  if (!svm.ok() || !vqc.ok()) {
    report.Fail("12-qubit lookups failed");
    return;
  }

  // Answers for the probe inputs and for a labelled accuracy sample.
  const auto inputs = ProbeInputs(args.seed, kColumns, kMinWidth);
  auto svm_values = svm.value()->RunBatch(qdb::serve::RequestKind::kPredict, inputs);
  auto vqc_values = vqc.value()->RunBatch(qdb::serve::RequestKind::kPredict, inputs);
  if (!svm_values.ok() || !vqc_values.ok()) {
    report.Fail("12-qubit RunBatch failed");
    return;
  }
  CheckAnswers(svm_artifact, vqc_artifact, inputs, svm_values.value(),
               vqc_values.value(), report);
  Rng accuracy_rng(StreamSeed(args.seed, 99));
  std::vector<qdb::DVector> sample;
  std::vector<int> labels;
  for (int i = 0; i < kAccuracyQueries; ++i) {
    const Predicate p = RandomPredicate(kColumns, kMinWidth, accuracy_rng);
    sample.push_back(p.Features());
    const double truth =
        static_cast<double>(CountMatchingRows(data.table, p.lo, p.hi)) / kRows;
    labels.push_back(truth < data.tau ? 1 : -1);
  }
  auto svm_sample = svm.value()->RunBatch(qdb::serve::RequestKind::kPredict, sample);
  auto vqc_sample = vqc.value()->RunBatch(qdb::serve::RequestKind::kPredict, sample);
  if (svm_sample.ok() && vqc_sample.ok()) {
    int svm_right = 0, vqc_right = 0;
    for (size_t i = 0; i < sample.size(); ++i) {
      svm_right += svm_sample.value()[i].label == labels[i] ? 1 : 0;
      vqc_right += vqc_sample.value()[i].label == labels[i] ? 1 : 0;
    }
    std::printf("reference accuracy on %d predicates: qsvm12 %.3f, vqc12 %.3f\n",
                kAccuracyQueries, svm_right / double(kAccuracyQueries),
                vqc_right / double(kAccuracyQueries));
  }

  // ---- Layer timings -------------------------------------------------------
  std::vector<qdb::Circuit> vqc_circuits, encodings;
  for (const auto& x : inputs) {
    auto circuit = qdb::serve::BuildBoundInferenceCircuit(vqc_artifact, x);
    if (!circuit.ok()) {
      report.Fail("cannot build the VQC inference circuit");
      return;
    }
    vqc_circuits.push_back(std::move(circuit).value());
    encodings.push_back(
        qdb::AngleEncoding(x, qdb::RotationAxis::kY, kKernelScale));
  }
  qdb::StateVectorSimulator simulator;
  size_t next = 0;
  const double vqc12_run_us = Probe("bench.sim.run_vqc12", 50, [&] {
    (void)simulator.Run(vqc_circuits[next++ % vqc_circuits.size()]);
  });
  report.Metric("sim.vqc12_run_us", vqc12_run_us, "us");
  report.Metric("sim.gate_amp_updates_per_s",
                static_cast<double>(vqc_circuits[0].size()) *
                    std::ldexp(1.0, 12) / (vqc12_run_us * 1e-6),
                "1/s");
  const double encode_us = Probe("bench.sim.run_encoding12", 50, [&] {
    (void)simulator.Run(encodings[next++ % encodings.size()]);
  });
  report.Metric("servable.qsvm_b1_us",
                RunBatchMicrosPerRequest(*svm.value(), inputs, 1,
                                         "bench.servable.qsvm_b1"),
                "us");
  const double qsvm_b16 = RunBatchMicrosPerRequest(*svm.value(), inputs, 16,
                                                   "bench.servable.qsvm_b16");
  report.Metric("servable.qsvm_b16_us_per_req", qsvm_b16, "us");
  report.Metric("kernel.qsvm_overlap_us_per_req", qsvm_b16 - encode_us, "us");
  report.Metric("servable.vqc_b1_us",
                RunBatchMicrosPerRequest(*vqc.value(), inputs, 1,
                                         "bench.servable.vqc_b1"),
                "us");
  report.Metric("servable.vqc_b16_us_per_req",
                RunBatchMicrosPerRequest(*vqc.value(), inputs, 16,
                                         "bench.servable.vqc_b16"),
                "us");
}

}  // namespace e2e
