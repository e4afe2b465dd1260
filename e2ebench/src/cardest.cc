// cardest_fleet: a fleet of 4-qubit VQR cardinality estimators. Four
// tables of different column correlation each get one trained model, saved
// as kVersions file-backed binary versions. The registry's memory budget
// holds a quarter of the fleet, model popularity is Zipf-skewed, and half
// of the predicates come from a small hot pool per table, so requests
// repeat. Each circuit costs tens of µs: admission, the queue, batching,
// cold-start reloads and the result cache set the latency.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>

#include "obs/trace.h"
#include "serve/servable.h"
#include "store/binary_format.h"
#include "workloads.h"

namespace e2e {

namespace {

constexpr int kVersions = 48;  // Per table: 4 × 48 = 192 models.
constexpr double kBudgetShare = 0.25;
constexpr double kZipfS = 1.0;

struct Stack {
  // Destroyed in reverse order: the server before the registry it serves.
  std::unique_ptr<qdb::serve::ModelRegistry> registry;
  std::unique_ptr<qdb::serve::InferenceServer> server;
};

/// Writes every version's binary artifact under `dir`, once per run and
/// without fsync, as an offline export would. Durable saves are rollout's
/// subject; creating the 192 files took 27–150 ms on one device between
/// runs, which would drown the library's share of set-up.
qdb::Status Export(const std::vector<qdb::serve::ModelArtifact>& trained,
                   const std::string& dir) {
  std::filesystem::create_directories(dir);
  for (const auto& base : trained) {
    for (int v = 1; v <= kVersions; ++v) {
      const std::string path = ArtifactPath(dir, base.name, v);
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << qdb::store::SerializeBinary(EstimatorVersion(base, v));
      out.close();
      if (!out) return qdb::Status::Internal("cannot write " + path);
    }
  }
  return qdb::Status::OK();
}

/// Loads every exported version into a budgeted registry (file-backed, so
/// evictable) and starts serving.
qdb::Status SetUp(const std::vector<qdb::serve::ModelArtifact>& trained,
                  size_t budget_bytes, const std::string& dir, Stack& s) {
  qdb::serve::RegistryOptions options;
  options.store_budget_bytes = budget_bytes;
  s.registry = std::make_unique<qdb::serve::ModelRegistry>(options);
  for (const auto& base : trained) {
    for (int v = 1; v <= kVersions; ++v) {
      QDB_RETURN_IF_ERROR(
          s.registry->LoadModel(ArtifactPath(dir, base.name, v)).status());
    }
  }
  s.server = std::make_unique<qdb::serve::InferenceServer>(*s.registry);
  return s.server->Start();
}

}  // namespace

int RunCardestFleet(const Args& args, Report& report) {
  const EstimatorTables tables = MakeEstimatorTables();
  const int num_models = static_cast<int>(tables.tables.size()) * kVersions;

  // The budget is a share of the fleet's resident size. A servable's size
  // follows from the circuit's shape, not its parameter values.
  qdb::serve::ModelArtifact shape;
  shape.type = qdb::serve::ModelType::kVqrRegressor;
  shape.name = "shape";
  shape.num_features = 4;
  shape.ansatz_layers = 3;
  shape.feature_scale = M_PI;
  for (int j = 0; j < 2 * 3 * 4; ++j) shape.params.push_back(0.1 * (j + 1));
  auto one = qdb::serve::ServableModel::Create(shape);
  if (!one.ok()) {
    std::fprintf(stderr, "servable failed: %s\n",
                 one.status().ToString().c_str());
    return 1;
  }
  const size_t budget_bytes = static_cast<size_t>(
      kBudgetShare * num_models * one.value()->ResidentBytes());

  double train_s = 0.0;
  auto trained = TrainEstimators(tables, train_s);
  if (!trained.ok()) {
    std::fprintf(stderr, "cardest_fleet training failed: %s\n",
                 trained.status().ToString().c_str());
    return 1;
  }
  const std::vector<qdb::serve::ModelArtifact> base = std::move(trained).value();

  const std::string dir = args.work_dir + "/artifacts";
  if (auto status = Export(base, dir); !status.ok()) {
    std::fprintf(stderr, "cardest_fleet export failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::vector<double> setup_s;
  Stack stack;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack.server.reset();
    stack.registry.reset();
    const auto start = Clock::now();
    if (auto status = SetUp(base, budget_bytes, dir, stack); !status.ok()) {
      std::fprintf(stderr, "cardest_fleet set-up failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    setup_s.push_back(SecondsSince(start));
  }

  // Traffic: a seeded popularity order over the fleet, Zipf-skewed ranks,
  // and per-table hot predicate pools.
  Rng traffic(args.seed * 7919 + 17);
  std::vector<int> by_rank(num_models);
  std::iota(by_rank.begin(), by_rank.end(), 0);
  std::shuffle(by_rank.begin(), by_rank.end(), traffic);
  const auto hot = HotPools(tables.tables.size(), traffic);
  const Zipf zipf(num_models, kZipfS);
  std::vector<Rng> rngs;
  for (int c = 0; c < kClients; ++c) rngs.emplace_back(StreamSeed(args.seed, c));
  // Each client's request in flight, and the first answers kept for the
  // checks (a fixed number, so memory does not follow throughput).
  std::vector<EstimateRecord> pending(kClients);
  std::vector<std::vector<EstimateRecord>> records(kClients);
  auto make_request = [&](int client, long) {
    const int model = by_rank[zipf.Draw(rngs[client])];
    EstimateRecord& r = pending[client];
    r.table = model / kVersions;
    r.version = model % kVersions + 1;
    r.predicate = DrawEstimatorPredicate(hot[r.table], rngs[client]);
    qdb::serve::InferenceRequest request;
    request.model = base[r.table].name;
    request.version = r.version;
    request.input = r.predicate.Features();
    return request;
  };
  std::atomic<long> wrong_version{0};
  auto on_completion = [&](int client, const auto& response) {
    EstimateRecord& r = pending[client];
    if (!response.ok()) return false;
    if (response.value().model_version != r.version) {
      ++wrong_version;
      return false;
    }
    r.value = response.value().result.value;
    KeepEstimate(r, records[client]);
    return true;
  };

  const auto store0 = stack.registry->store_status();
  LoadResult load;
  if (!args.trace) {
    load = RunClosedLoop(*stack.server, kClients, kWarmupSeconds, args.seconds,
                         kWindowSeconds, make_request, on_completion);
    report.Count(load.attempted, load.failed);
  } else {
    load = RunTracedHalves(*stack.server, kClients, args, make_request,
                           on_completion, report);
  }
  const auto store1 = stack.registry->store_status();
  stack.server->Shutdown();
  CheckServerInvariants(*stack.server, report);
  if (wrong_version > 0) {
    report.Fail(std::to_string(wrong_version) +
                " responses came from another version than requested");
  }
  CheckEstimates(records, tables, base, args.trace, report);

  LogSeries("setup_s", setup_s);
  if (!args.trace) {
    report.Metric("setup_s", Median(setup_s), "s");
    AddServingMetrics(load, report);
    return 0;
  }

  // ---- Per-layer probes ----------------------------------------------------
  report.Metric("train.vqr_s", train_s, "s");
  report.Metric("registry.reloads",
                static_cast<double>(store1.reloads - store0.reloads), "count");
  report.Metric("registry.evictions",
                static_cast<double>(store1.evictions - store0.evictions),
                "count");
  auto server = std::make_unique<qdb::serve::InferenceServer>(*stack.registry);
  if (!server->Start().ok()) {
    report.Fail("probe server did not start");
    return 0;
  }
  const auto inputs = ProbeInputs(args.seed, 2, kEstimatorMinWidth);
  const std::string& top_name = base[by_rank[0] / kVersions].name;
  const int top_version = by_rank[0] % kVersions + 1;
  auto top = stack.registry->Lookup(top_name, top_version);
  if (!top.ok()) {
    report.Fail("probe lookup failed");
    return 0;
  }
  report.Metric("servable.vqr4_b1_us",
                RunBatchMicrosPerRequest(*top.value(), inputs, 1,
                                         "bench.servable.vqr4_b1"),
                "us");
  ProbeServing(*stack.registry, *server, top_name, top_version, inputs, report);
  ProbeColdStarts(*stack.registry, report);
  ProbeStore(EstimatorVersion(base[0], 1), args.work_dir, report);
  server->Shutdown();
  ProbeJournal(base, args.work_dir + "/journal-probe", report);
  ProbeClassifiers(args, report);
  WriteTraceReport(args.work_dir, "cardest_fleet");
  return 0;
}

}  // namespace e2e
