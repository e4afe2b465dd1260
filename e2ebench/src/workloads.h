// The two workloads and what they share: the cardinality-estimator fleet
// (tables, training, per-version artifacts) used by cardest_fleet and
// rollout, and the layer probes of the traced run.

#ifndef QDB_E2EBENCH_WORKLOADS_H_
#define QDB_E2EBENCH_WORKLOADS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "db/cardinality.h"
#include "harness.h"
#include "inputs.h"
#include "serve/inference_server.h"
#include "serve/model_artifact.h"
#include "serve/model_registry.h"

namespace e2e {

int RunCardestFleet(const Args& args, Report& report);
int RunRollout(const Args& args, Report& report);

/// Trains, saves, loads and probes the 12-qubit kernel SVM and VQC (the
/// sim, kernel and servable layers under compute-bound serving), checking
/// their answers against the oracles. Part of every traced run.
void ProbeClassifiers(const Args& args, Report& report);

/// The journal layer outside rollout's own run (cardest_fleet's traced
/// run): populates a journaled registry of `base`'s versions under `dir`,
/// warm-restarts it (journal.recovery_us, loader.warm_ready_ms), times
/// publish cycles and journaled pin toggles on it.
void ProbeJournal(const std::vector<qdb::serve::ModelArtifact>& base,
                  const std::string& dir, Report& report);

/// Set-ups per run; setup_s reports their median.
constexpr int kSetupReps = 15;
/// Closed-loop clients (the host has 4 CPUs; clients block on replies).
constexpr int kClients = 4;
constexpr double kWarmupSeconds = 1.0;
constexpr double kWindowSeconds = 0.5;

// ---- The cardinality-estimator fleet (cardest_fleet, rollout) -------------

/// The estimators' tables: 2 columns each, one per column correlation.
/// They come from a fixed data seed, so every run serves the same models;
/// --seed draws the traffic.
struct EstimatorTables {
  std::vector<double> rho;
  std::vector<qdb::SyntheticTable> tables;
  /// The library's histogram estimator per table: the reference for the
  /// served estimates' q-error.
  std::vector<qdb::IndependenceEstimator> histograms;
};
EstimatorTables MakeEstimatorTables();

/// Trains one 4-qubit VQR per table (named "card-t<i>"); `train_s` gets the
/// summed training time.
qdb::Result<std::vector<qdb::serve::ModelArtifact>> TrainEstimators(
    const EstimatorTables& tables, double& train_s);

/// Version `version` of an estimator: the trained parameters shifted by a
/// small version-dependent offset, so a response from the wrong version
/// fails the reference check.
qdb::serve::ModelArtifact EstimatorVersion(const qdb::serve::ModelArtifact& base,
                                           int version);

/// The estimators' target encoding: log₁₀ selectivity over [1e-4, 1]
/// mapped onto [−1, 1], and back.
double SelectivityToTarget(double selectivity);
double TargetToSelectivity(double target);

/// Traffic predicate for one table: with probability kHotShare one of the
/// table's hot predicates (so requests repeat), otherwise a fresh one.
constexpr double kHotShare = 0.5;
constexpr int kHotPoolSize = 64;
constexpr double kEstimatorMinWidth = 0.05;
Predicate DrawEstimatorPredicate(const std::vector<Predicate>& hot_pool,
                                 Rng& rng);

/// Each estimator table's hot predicates.
std::vector<std::vector<Predicate>> HotPools(size_t tables, Rng& rng);

/// Where an estimator version's artifact file lives under `dir`.
std::string ArtifactPath(const std::string& dir, const std::string& name,
                         int version);

/// One served estimate, kept for the checks after the timed phase.
struct EstimateRecord {
  int table = 0;
  int version = 0;  ///< The version that answered.
  Predicate predicate;
  double value = 0.0;
};

/// Keeps `record` while the client has kept fewer than 2 048 answers: a
/// fixed number, so the checks' memory does not follow throughput.
void KeepEstimate(const EstimateRecord& record,
                  std::vector<EstimateRecord>& kept);

/// Checks the kept estimates: the first 256 of each client against the
/// reference state vector, all of them against exact row counts. Adds wrong_pct (the share
/// with q-error > 2) to an untraced run, quality.qerror_p50 and
/// db.qerror_independence_p50 to a traced one.
void CheckEstimates(const std::vector<std::vector<EstimateRecord>>& records,
                    const EstimatorTables& tables,
                    const std::vector<qdb::serve::ModelArtifact>& base,
                    bool traced, Report& report);

// ---- Layer probes of the traced run ----------------------------------------

/// Runs `fn` `reps` times with tracing off and returns the median µs; then
/// runs it once more with tracing on inside a benchmark span named `span`,
/// so the trace shows the layer calls under it.
double Probe(const char* span, int reps, const std::function<void()>& fn);

/// store.*: SaveArtifact, ReadFileBytes and LoadArtifact of `artifact` in
/// `dir`, the file's size, and the benchmark's own write + fsync of the
/// same bytes.
void ProbeStore(const qdb::serve::ModelArtifact& artifact,
                const std::string& dir, Report& report);

/// server.solo_tax_us: one client's Submit → response minus a bare
/// RunBatch of the same input, both medians over distinct inputs.
/// registry.lookup_warm_us: a Lookup of the resident model.
void ProbeServing(qdb::serve::ModelRegistry& registry,
                  qdb::serve::InferenceServer& server, const std::string& model,
                  int version, const std::vector<qdb::DVector>& inputs,
                  Report& report);

/// registry.cold_start_us_p50: Lookups of up to 32 paged-out versions in
/// `registry`, each a reload from its file.
void ProbeColdStarts(qdb::serve::ModelRegistry& registry, Report& report);

/// 64 distinct probe inputs: predicates of `columns` columns drawn from a
/// stream of `seed` that the traffic does not use.
std::vector<qdb::DVector> ProbeInputs(uint64_t seed, int columns,
                                      double min_width);

/// Median µs per request of RunBatch over `batch` inputs.
double RunBatchMicrosPerRequest(const qdb::serve::ServableModel& servable,
                                const std::vector<qdb::DVector>& inputs,
                                size_t batch, const char* span);

/// The traced part shared by every workload: an untraced closed loop for
/// half the run (server.* layer metrics, throughput baseline), a traced one
/// for the other half, and obs.trace_overhead_pct between them. Returns
/// the untraced half.
LoadResult RunTracedHalves(qdb::serve::InferenceServer& server, int clients,
                           const Args& args, const RequestFn& make_request,
                           const CompletionFn& on_completion, Report& report);

}  // namespace e2e

#endif  // QDB_E2EBENCH_WORKLOADS_H_
