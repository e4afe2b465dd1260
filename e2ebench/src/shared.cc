#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/trace.h"
#include "oracle.h"
#include "serve/servable.h"
#include "store/binary_format.h"
#include "variational/vqr.h"
#include "workloads.h"

namespace e2e {

// ---- Estimator fleet ------------------------------------------------------

namespace {

constexpr uint64_t kEstimatorDataSeed = 0xCA4D'E571'0001ull;
constexpr int kEstimatorRows = 4000;
constexpr int kEstimatorTrainQueries = 48;
constexpr double kFloorSelectivity = 1e-4;

}  // namespace

EstimatorTables MakeEstimatorTables() {
  EstimatorTables t;
  t.rho = {0.2, 0.6, 0.85, 0.95};
  Rng rng(kEstimatorDataSeed);
  for (double rho : t.rho) {
    t.tables.push_back(CorrelatedTable(kEstimatorRows, 2, rho, rng));
    t.histograms.push_back(
        qdb::IndependenceEstimator::Build(t.tables.back(), 32));
  }
  return t;
}

double SelectivityToTarget(double selectivity) {
  const double s = std::clamp(selectivity, kFloorSelectivity, 1.0);
  return 1.0 + std::log10(s) / 2.0;
}

double TargetToSelectivity(double target) {
  return std::pow(10.0, 2.0 * (std::clamp(target, -1.0, 1.0) - 1.0));
}

qdb::Result<std::vector<qdb::serve::ModelArtifact>> TrainEstimators(
    const EstimatorTables& tables, double& train_s) {
  std::vector<qdb::serve::ModelArtifact> models;
  train_s = 0.0;
  for (size_t i = 0; i < tables.tables.size(); ++i) {
    const auto& table = tables.tables[i];
    Rng rng(kEstimatorDataSeed + 101 * (i + 1));
    std::vector<qdb::DVector> features;
    qdb::DVector targets;
    for (int q = 0; q < kEstimatorTrainQueries; ++q) {
      const Predicate p = RandomPredicate(2, kEstimatorMinWidth, rng);
      features.push_back(p.Features());
      targets.push_back(SelectivityToTarget(
          static_cast<double>(CountMatchingRows(table, p.lo, p.hi)) /
          table.num_rows()));
    }
    qdb::VqrOptions options;
    options.ansatz_layers = 3;
    options.feature_scale = M_PI;
    options.adam.max_iterations = 120;
    options.adam.learning_rate = 0.12;
    const auto start = Clock::now();
    auto model = qdb::VqrRegressor::Train(features, targets, options);
    train_s += SecondsSince(start);
    if (!model.ok()) return model.status();
    models.push_back(qdb::serve::MakeVqrArtifact(
        model.value(), "card-t" + std::to_string(i)));
  }
  return models;
}

qdb::serve::ModelArtifact EstimatorVersion(
    const qdb::serve::ModelArtifact& base, int version) {
  qdb::serve::ModelArtifact a = base;
  a.version = version;
  for (size_t j = 0; j < a.params.size(); ++j) {
    a.params[j] += 1e-3 * static_cast<double>((version * 7 + j) % 11) - 5e-3;
  }
  a.circuit_fingerprint = 0;  // Stamped again at registration.
  return a;
}

std::vector<std::vector<Predicate>> HotPools(size_t tables, Rng& rng) {
  std::vector<std::vector<Predicate>> pools(tables);
  for (auto& pool : pools) {
    for (int i = 0; i < kHotPoolSize; ++i) {
      pool.push_back(RandomPredicate(2, kEstimatorMinWidth, rng));
    }
  }
  return pools;
}

std::string ArtifactPath(const std::string& dir, const std::string& name,
                         int version) {
  return dir + "/" + name + "-v" + std::to_string(version) + ".qdbm";
}

void KeepEstimate(const EstimateRecord& record,
                  std::vector<EstimateRecord>& kept) {
  if (kept.size() < 2048) kept.push_back(record);
}

Predicate DrawEstimatorPredicate(const std::vector<Predicate>& hot_pool,
                                 Rng& rng) {
  if (Uniform(rng, 0.0, 1.0) < kHotShare) {
    return hot_pool[static_cast<size_t>(rng() % hot_pool.size())];
  }
  return RandomPredicate(2, kEstimatorMinWidth, rng);
}

void CheckEstimates(const std::vector<std::vector<EstimateRecord>>& records,
                    const EstimatorTables& tables,
                    const std::vector<qdb::serve::ModelArtifact>& base,
                    bool traced, Report& report) {
  constexpr size_t kReferencePerClient = 256;
  long mismatches = 0;
  std::vector<double> qerrors, histogram_qerrors;
  long wrong = 0;
  for (const auto& client : records) {
    for (size_t i = 0; i < client.size(); ++i) {
      const EstimateRecord& r = client[i];
      if (i < kReferencePerClient) {
        auto circuit = qdb::serve::BuildBoundInferenceCircuit(
            EstimatorVersion(base[r.table], r.version), r.predicate.Features());
        const double ref = circuit.ok()
                               ? ReferenceExpectationZ0(circuit.value())
                               : std::nan("");
        if (!(std::abs(ref - r.value) <= 1e-9)) {
          if (mismatches++ == 0) {
            char what[160];
            std::snprintf(what, sizeof(what),
                          "card-t%d v%d served %.17g, reference state vector "
                          "gives %.17g",
                          r.table, r.version, r.value, ref);
            report.Fail(what);
          }
        }
      }
      {
        const auto& table = tables.tables[r.table];
        const double truth =
            static_cast<double>(
                CountMatchingRows(table, r.predicate.lo, r.predicate.hi)) /
            table.num_rows();
        const double q = QErrorOf(TargetToSelectivity(r.value), truth);
        qerrors.push_back(q);
        wrong += q > 2.0 ? 1 : 0;
        histogram_qerrors.push_back(QErrorOf(
            tables.histograms[r.table].Estimate(
                qdb::RangeQuery{r.predicate.lo, r.predicate.hi}),
            truth));
      }
    }
  }
  if (mismatches > 0) {
    report.Fail(std::to_string(mismatches) +
                " served estimates differ from the reference state vector");
  }
  if (qerrors.empty()) report.Fail("no estimate was served");
  if (!traced) {
    report.Metric("wrong_pct",
                  100.0 * static_cast<double>(wrong) /
                      std::max<size_t>(1, qerrors.size()),
                  "%");
  } else {
    report.Metric("quality.qerror_p50", Median(qerrors), "ratio");
    report.Metric("db.qerror_independence_p50", Median(histogram_qerrors),
                  "ratio");
  }
}

// ---- Layer probes -----------------------------------------------------------

double Probe(const char* span, int reps, const std::function<void()>& fn) {
  const double us = MedianMicros(reps, fn);
  qdb::obs::EnableTracing();
  {
    qdb::obs::TraceSpan traced(span, "bench");
    fn();
  }
  qdb::obs::DisableTracing();
  return us;
}

void ProbeStore(const qdb::serve::ModelArtifact& artifact,
                const std::string& dir, Report& report) {
  const std::string path = dir + "/probe.qdbm";
  bool ok = true;
  report.Metric("store.save_us", Probe("bench.store.save", 15, [&] {
                  ok &= qdb::store::SaveArtifact(artifact, path,
                                                 qdb::store::ArtifactFormat::kBinary)
                            .ok();
                }),
                "us");
  std::string bytes;
  report.Metric("store.artifact_read_us",
                Probe("bench.store.read", 50, [&] {
                  auto read = qdb::store::ReadFileBytes(path);
                  ok &= read.ok();
                  if (read.ok()) bytes = std::move(read).value();
                }),
                "us");
  report.Metric("store.artifact_load_us", Probe("bench.store.load", 50, [&] {
                  ok &= qdb::store::LoadArtifact(path).ok();
                }),
                "us");
  report.Metric("store.artifact_bytes", static_cast<double>(bytes.size()),
                "bytes");
  std::vector<double> fsyncs;
  for (int i = 0; i < 15; ++i) {
    fsyncs.push_back(WriteFsyncMicros(dir + "/probe.raw", bytes));
  }
  report.Metric("store.fsync_us", Median(fsyncs), "us");
  if (!ok) report.Fail("store probe: save, read or load failed");
}

void ProbeColdStarts(qdb::serve::ModelRegistry& registry, Report& report) {
  std::vector<double> cold_us;
  qdb::obs::EnableTracing();
  for (const auto& entry : registry.List()) {
    if (entry.resident || cold_us.size() >= 32) continue;
    qdb::obs::TraceSpan span("bench.registry.cold_start", "bench");
    const auto start = Clock::now();
    const bool ok = registry.Lookup(entry.name, entry.version).ok();
    cold_us.push_back(MicrosSince(start));
    if (!ok) report.Fail("cold-start lookup of " + entry.name + " failed");
  }
  qdb::obs::DisableTracing();
  if (cold_us.empty()) report.Fail("cold-start probe: no version was paged out");
  report.Metric("registry.cold_start_us_p50", Median(cold_us), "us");
}

std::vector<qdb::DVector> ProbeInputs(uint64_t seed, int columns,
                                      double min_width) {
  Rng rng(seed ^ 0x9E3779B97F4A7C15ull);
  std::vector<qdb::DVector> inputs;
  for (int i = 0; i < 64; ++i) {
    inputs.push_back(RandomPredicate(columns, min_width, rng).Features());
  }
  return inputs;
}

double RunBatchMicrosPerRequest(const qdb::serve::ServableModel& servable,
                                const std::vector<qdb::DVector>& inputs,
                                size_t batch, const char* span) {
  size_t next = 0;
  bool ok = true;
  const int reps = batch == 1 ? 64 : 12;
  const double us = Probe(span, reps, [&] {
    std::vector<qdb::DVector> xs;
    for (size_t i = 0; i < batch; ++i) xs.push_back(inputs[next++ % inputs.size()]);
    ok &= servable.RunBatch(qdb::serve::RequestKind::kPredict, xs).ok();
  });
  return ok ? us / static_cast<double>(batch) : 0.0;
}

void ProbeServing(qdb::serve::ModelRegistry& registry,
                  qdb::serve::InferenceServer& server, const std::string& model,
                  int version, const std::vector<qdb::DVector>& inputs,
                  Report& report) {
  auto servable = registry.Lookup(model, version);
  if (!servable.ok()) {
    report.Fail("probe lookup of " + model + ": " +
                servable.status().ToString());
    return;
  }
  report.Metric("registry.lookup_warm_us",
                Probe("bench.registry.lookup", 200,
                      [&] { (void)registry.Lookup(model, version); }),
                "us");
  // Alternate round trips and bare batches over distinct inputs, so the
  // result cache never answers and both sides see the same noise.
  std::vector<double> round_trip, bare;
  bool ok = true;
  for (size_t i = 0; i < inputs.size(); ++i) {
    qdb::serve::InferenceRequest request;
    request.model = model;
    request.version = version;
    request.input = inputs[i];
    auto start = Clock::now();
    auto response = server.Submit(std::move(request)).get();
    round_trip.push_back(MicrosSince(start));
    ok &= response.ok() && !response.value().from_cache;
    start = Clock::now();
    ok &= servable.value()
              ->RunBatch(qdb::serve::RequestKind::kPredict, {inputs[i]})
              .ok();
    bare.push_back(MicrosSince(start));
  }
  if (!ok) report.Fail("solo-tax probe: a request failed or hit the cache");
  report.Metric("server.solo_tax_us", Median(round_trip) - Median(bare), "us");
}

LoadResult RunTracedHalves(qdb::serve::InferenceServer& server, int clients,
                           const Args& args, const RequestFn& make_request,
                           const CompletionFn& on_completion, Report& report) {
  const double half = args.seconds / 2.0;
  LoadResult untraced = RunClosedLoop(server, clients, kWarmupSeconds, half,
                                      kWindowSeconds, make_request,
                                      on_completion);
  qdb::obs::TraceLog::Global().SetCapacity(size_t{1} << 18);
  qdb::obs::TraceLog::Global().Clear();
  qdb::obs::EnableTracing();
  LoadResult traced = RunClosedLoop(server, clients, kWarmupSeconds, half,
                                    kWindowSeconds, make_request,
                                    on_completion);
  qdb::obs::DisableTracing();
  report.Count(untraced.attempted + traced.attempted,
               untraced.failed + traced.failed);
  AddServerLayerMetrics(untraced, report);
  const double base = untraced.ThroughputRps();
  report.Metric("obs.trace_overhead_pct",
                base > 0 ? 100.0 * (base - traced.ThroughputRps()) / base : 0.0,
                "%");
  report.Metric("host.stream_gbps", StreamCopyGbps(), "GB/s");
  return untraced;
}

}  // namespace e2e
