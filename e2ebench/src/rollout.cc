// rollout: the cardinality estimators served from a journaled registry
// while one publisher thread rolls out a version every 20 ms: register a
// new version, save it (atomic write, fsync, journal promote), retire the
// oldest (journal append). Three reader clients ask for the latest version
// of each estimator. The registry is populated once; set-up is its restart
// from the journal, and the end of the run warm-restarts it again through
// the loader, checks it against the publisher's own ledger and serves
// every recovered model once.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <set>
#include <thread>

#include "obs/trace.h"
#include "oracle.h"
#include "serve/servable.h"
#include "store/async_loader.h"
#include "workloads.h"

namespace e2e {

namespace {

constexpr int kLiveVersions = 8;  // Per estimator, kept by the publisher.
constexpr int kReaders = kClients - 1;  // The publisher is the fourth.
constexpr auto kPublishPeriod = std::chrono::milliseconds(20);

struct Stack {
  double recovery_us = 0.0;
  double warm_ready_ms = 0.0;
  // Destroyed in reverse order: server, loader, then their registry.
  std::unique_ptr<qdb::serve::ModelRegistry> registry;
  std::unique_ptr<qdb::store::AsyncModelLoader> loader;
  std::unique_ptr<qdb::serve::InferenceServer> server;

  void Close() {
    server.reset();
    loader.reset();
    registry.reset();
  }
};

qdb::serve::RegistryOptions JournaledOptions(const std::string& dir) {
  qdb::serve::RegistryOptions options;
  options.journal_dir = dir + "/journal";
  return options;
}

/// Set-up: reopens the registry from its journal, reloads every recovered
/// version with a Lookup from this thread, and starts the server. The
/// loader's asynchronous warm-up (OpenAndWarm) hands each model across
/// three threads; on the 4-CPU host its time swung 2.5–35 ms between
/// repeats of the same work, so it is timed as loader.warm_ready_ms at the
/// end of the run instead.
qdb::Status Open(const std::string& dir, Stack& s) {
  QDB_ASSIGN_OR_RETURN(s.registry,
                       qdb::serve::ModelRegistry::OpenJournaled(
                           JournaledOptions(dir)));
  s.recovery_us = static_cast<double>(s.registry->recovery_report().recovery_us);
  for (const auto& entry : s.registry->List()) {
    QDB_RETURN_IF_ERROR(s.registry->Lookup(entry.name, entry.version).status());
  }
  s.server = std::make_unique<qdb::serve::InferenceServer>(*s.registry);
  return s.server->Start();
}

/// Reopens the registry from its journal, starts the server and the
/// loader, and prefetches the warm set until the server reports ready.
qdb::Status OpenAndWarm(const std::string& dir, Stack& s) {
  QDB_ASSIGN_OR_RETURN(s.registry,
                       qdb::serve::ModelRegistry::OpenJournaled(
                           JournaledOptions(dir)));
  s.recovery_us = static_cast<double>(s.registry->recovery_report().recovery_us);
  s.loader = std::make_unique<qdb::store::AsyncModelLoader>(*s.registry);
  QDB_RETURN_IF_ERROR(s.loader->Start());
  s.server = std::make_unique<qdb::serve::InferenceServer>(*s.registry);
  QDB_RETURN_IF_ERROR(s.server->Start());
  const auto start = Clock::now();
  QDB_RETURN_IF_ERROR(s.server->StartWarmup(*s.loader));
  while (!s.server->Healthz().ok()) {
    if (SecondsSince(start) > 30.0) {
      return qdb::Status::Unavailable("server not ready after warm restart: " +
                                      s.server->Healthz().ToString());
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  s.warm_ready_ms = 1e3 * SecondsSince(start);
  return qdb::Status::OK();
}

/// Registers version `version` of `base` and saves it under `dir`
/// (atomic write, fsync, journal promote).
qdb::Status Publish(qdb::serve::ModelRegistry& registry,
                    const qdb::serve::ModelArtifact& base, int version,
                    const std::string& dir) {
  QDB_RETURN_IF_ERROR(
      registry.Register(EstimatorVersion(base, version)).status());
  return registry.SaveModel(base.name, version,
                            ArtifactPath(dir, base.name, version));
}

/// Retires version `version` of `base` (journal append) and removes its
/// file.
qdb::Status Retire(qdb::serve::ModelRegistry& registry,
                   const qdb::serve::ModelArtifact& base, int version,
                   const std::string& dir) {
  QDB_RETURN_IF_ERROR(registry.Evict(base.name, version));
  std::filesystem::remove(ArtifactPath(dir, base.name, version));
  return qdb::Status::OK();
}

/// Publishes versions 1..kLiveVersions of each estimator into a fresh
/// journaled registry under `dir` and closes it.
qdb::Status Populate(const std::vector<qdb::serve::ModelArtifact>& trained,
                     const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  QDB_ASSIGN_OR_RETURN(auto registry, qdb::serve::ModelRegistry::OpenJournaled(
                                          JournaledOptions(dir)));
  for (const auto& base : trained) {
    for (int v = 1; v <= kLiveVersions; ++v) {
      QDB_RETURN_IF_ERROR(Publish(*registry, base, v, dir));
    }
  }
  return qdb::Status::OK();
}

/// journal.append_us_p50: one journaled pin toggle of `name` v`version`.
void ProbePinToggle(qdb::serve::ModelRegistry& registry,
                    const std::string& name, int version, Report& report) {
  bool pin = true;
  bool ok = true;
  report.Metric("journal.append_us_p50",
                Probe("bench.journal.pin_toggle", 40, [&] {
                  ok &= registry.SetPinned(name, version, pin).ok();
                  pin = !pin;
                }),
                "us");
  if (!ok) report.Fail("journaled pin toggle failed");
}

/// What the publisher acknowledged: per estimator the live versions in
/// publish order, and every version it retired.
struct Ledger {
  std::vector<std::deque<int>> live;
  std::set<std::pair<int, int>> retired;  ///< (table, version)
  long attempted = 0;
  long failed = 0;
  std::vector<double> cycle_us;
};

}  // namespace

int RunRollout(const Args& args, Report& report) {
  const EstimatorTables tables = MakeEstimatorTables();
  const int num_tables = static_cast<int>(tables.tables.size());
  double train_s = 0.0;
  auto trained = TrainEstimators(tables, train_s);
  if (!trained.ok()) {
    std::fprintf(stderr, "rollout training failed: %s\n",
                 trained.status().ToString().c_str());
    return 1;
  }
  const std::vector<qdb::serve::ModelArtifact> base = std::move(trained).value();

  // The journaled registry is populated once; set-up is the restart from
  // its journal that the readers are served from, repeated kSetupReps
  // times.
  const std::string dir = args.work_dir + "/registry";
  const auto populate_start = Clock::now();
  if (auto status = Populate(base, dir); !status.ok()) {
    std::fprintf(stderr, "rollout populate failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  const double populate_s = SecondsSince(populate_start);
  std::vector<double> setup_s, recovery_us;
  Stack stack;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack.Close();
    const auto start = Clock::now();
    if (auto status = Open(dir, stack); !status.ok()) {
      std::fprintf(stderr, "rollout set-up failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    setup_s.push_back(SecondsSince(start));
    recovery_us.push_back(stack.recovery_us);
  }

  // ---- Publisher ------------------------------------------------------------
  Ledger ledger;
  ledger.live.resize(num_tables);
  for (auto& versions : ledger.live) {
    for (int v = 1; v <= kLiveVersions; ++v) versions.push_back(v);
  }
  std::atomic<bool> stop_publisher{false};
  std::thread publisher([&] {
    std::vector<int> next_version(num_tables, kLiveVersions + 1);
    auto due = Clock::now();
    for (long cycle = 0; !stop_publisher.load(); ++cycle) {
      // A fixed publish rate: the readers see the same write load whatever
      // the device's fsync latency (a late cycle starts at once, no burst).
      std::this_thread::sleep_until(due);
      due = std::max(due + kPublishPeriod, Clock::now());
      const int t = static_cast<int>(cycle % num_tables);
      const int version = next_version[t]++;
      const auto start = Clock::now();
      bool ok = Publish(*stack.registry, base[t], version, dir).ok();
      if (ok) ledger.live[t].push_back(version);
      const int oldest = ledger.live[t].front();
      if (ok && Retire(*stack.registry, base[t], oldest, dir).ok()) {
        ledger.live[t].pop_front();
        ledger.retired.insert({t, oldest});
      } else {
        ok = false;
      }
      ledger.cycle_us.push_back(MicrosSince(start));
      ++ledger.attempted;
      if (!ok) ++ledger.failed;
    }
  });

  // ---- Readers: the latest version of a uniformly drawn estimator ----------
  Rng traffic(args.seed * 7919 + 29);
  const auto hot = HotPools(num_tables, traffic);
  std::vector<Rng> rngs;
  for (int c = 0; c < kReaders; ++c) rngs.emplace_back(StreamSeed(args.seed, c));
  std::vector<EstimateRecord> pending(kReaders);
  std::vector<std::vector<EstimateRecord>> records(kReaders);
  auto make_request = [&](int client, long) {
    EstimateRecord& r = pending[client];
    r.table = static_cast<int>(rngs[client]() % num_tables);
    r.predicate = DrawEstimatorPredicate(hot[r.table], rngs[client]);
    qdb::serve::InferenceRequest request;
    request.model = base[r.table].name;
    request.input = r.predicate.Features();
    return request;
  };
  auto on_completion = [&](int client, const auto& response) {
    EstimateRecord& r = pending[client];
    if (!response.ok()) return false;
    r.version = response.value().model_version;
    r.value = response.value().result.value;
    KeepEstimate(r, records[client]);
    return true;
  };

  const auto store0 = stack.registry->store_status();
  LoadResult load;
  if (!args.trace) {
    load = RunClosedLoop(*stack.server, kReaders, kWarmupSeconds, args.seconds,
                         kWindowSeconds, make_request, on_completion);
    report.Count(load.attempted, load.failed);
  } else {
    load = RunTracedHalves(*stack.server, kReaders, args, make_request,
                           on_completion, report);
  }
  stop_publisher.store(true);
  publisher.join();
  const auto store1 = stack.registry->store_status();
  report.Count(ledger.attempted, ledger.failed);
  if (ledger.failed > 0) {
    report.Fail(std::to_string(ledger.failed) + " of " +
                std::to_string(ledger.attempted) + " publish cycles failed");
  }
  stack.server->Shutdown();
  CheckServerInvariants(*stack.server, report);
  CheckEstimates(records, tables, base, args.trace, report);

  // ---- Reopen from the journal and check it against the ledger -------------
  stack.Close();
  Stack reopened;
  if (auto status = OpenAndWarm(dir, reopened); !status.ok()) {
    report.Fail("reopening the journaled registry: " + status.ToString());
    return 0;
  }
  std::set<std::pair<int, int>> present;
  for (const auto& entry : reopened.registry->List()) {
    int table = -1;
    for (int t = 0; t < num_tables; ++t) {
      if (base[t].name == entry.name) table = t;
    }
    present.insert({table, entry.version});
  }
  std::set<std::pair<int, int>> live;
  for (int t = 0; t < num_tables; ++t) {
    for (int v : ledger.live[t]) live.insert({t, v});
  }
  for (const auto& key : live) {
    if (!present.count(key)) {
      report.Fail("acknowledged version " + base[key.first].name + " v" +
                  std::to_string(key.second) + " lost across the reopen");
    }
  }
  for (const auto& key : present) {
    if (ledger.retired.count(key)) {
      report.Fail("retired version v" + std::to_string(key.second) +
                  " came back after the reopen");
    } else if (!live.count(key)) {
      report.Fail("reopened registry holds a version never acknowledged: v" +
                  std::to_string(key.second));
    }
  }
  // Every recovered model serves, with its own version's answer.
  const Predicate probe_predicate{{0.1, 0.2}, {0.6, 0.7}};
  long served = 0, serve_failed = 0;
  for (const auto& [t, v] : present) {
    if (t < 0) continue;
    qdb::serve::InferenceRequest request;
    request.model = base[t].name;
    request.version = v;
    request.input = probe_predicate.Features();
    auto response = reopened.server->Submit(request).get();
    ++served;
    auto circuit = qdb::serve::BuildBoundInferenceCircuit(
        EstimatorVersion(base[t], v), request.input);
    const double ref =
        circuit.ok() ? ReferenceExpectationZ0(circuit.value()) : std::nan("");
    if (!response.ok() || !(std::abs(response.value().result.value - ref) <= 1e-9)) {
      ++serve_failed;
      report.Fail("recovered " + base[t].name + " v" + std::to_string(v) +
                  " did not serve its own answer");
    }
  }
  report.Count(served, serve_failed);

  std::fprintf(stderr, "populate_s: %f\n", populate_s);
  LogSeries("setup_s", setup_s);
  if (!args.trace) {
    report.Metric("setup_s", Median(setup_s), "s");
    AddServingMetrics(load, report);
    return 0;
  }

  // ---- Per-layer probes ----------------------------------------------------
  report.Metric("train.vqr_s", train_s, "s");
  report.Metric("journal.recovery_us", Median(recovery_us), "us");
  report.Metric("loader.warm_ready_ms", reopened.warm_ready_ms, "ms");
  report.Metric("publish.cycle_us_p50", Median(ledger.cycle_us), "us");
  report.Metric("registry.reloads",
                static_cast<double>(store1.reloads - store0.reloads), "count");
  report.Metric("registry.evictions",
                static_cast<double>(store1.evictions - store0.evictions),
                "count");
  const int probe_version = ledger.live[0].back();
  ProbePinToggle(*reopened.registry, base[0].name, probe_version, report);
  const auto inputs = ProbeInputs(args.seed, 2, kEstimatorMinWidth);
  auto servable = reopened.registry->Lookup(base[0].name, probe_version);
  if (!servable.ok()) {
    report.Fail("probe lookup failed");
    return 0;
  }
  report.Metric("servable.vqr4_b1_us",
                RunBatchMicrosPerRequest(*servable.value(), inputs, 1,
                                         "bench.servable.vqr4_b1"),
                "us");
  ProbeServing(*reopened.registry, *reopened.server, base[0].name,
               probe_version, inputs, report);
  ProbeStore(EstimatorVersion(base[0], probe_version), args.work_dir, report);
  // Cold starts: the live versions' files loaded into a registry whose
  // budget holds a quarter of them.
  qdb::serve::RegistryOptions budgeted_options;
  budgeted_options.store_budget_bytes =
      live.size() / 4 * servable.value()->ResidentBytes();
  qdb::serve::ModelRegistry budgeted(budgeted_options);
  for (const auto& [t, v] : live) {
    if (!budgeted.LoadModel(ArtifactPath(dir, base[t].name, v)).ok()) {
      report.Fail("cannot load " + base[t].name + " v" + std::to_string(v));
    }
  }
  ProbeColdStarts(budgeted, report);
  ProbeClassifiers(args, report);
  reopened.server->Shutdown();
  WriteTraceReport(args.work_dir, "rollout");
  return 0;
}

}  // namespace e2e

namespace e2e {

void ProbeJournal(const std::vector<qdb::serve::ModelArtifact>& base,
                  const std::string& dir, Report& report) {
  Stack s;
  qdb::Status status = Populate(base, dir);
  if (status.ok()) status = OpenAndWarm(dir, s);
  if (!status.ok()) {
    report.Fail("journal probe: " + status.ToString());
    return;
  }
  report.Metric("journal.recovery_us", s.recovery_us, "us");
  report.Metric("loader.warm_ready_ms", s.warm_ready_ms, "ms");
  // Publish cycles against the idle server, each retiring the oldest
  // version of its estimator.
  int cycle = 0;
  bool ok = true;
  report.Metric("publish.cycle_us_p50",
                Probe("bench.publish.cycle", 15, [&] {
                  const auto& b = base[cycle % base.size()];
                  const int version =
                      kLiveVersions + 1 + cycle / static_cast<int>(base.size());
                  ok &= Publish(*s.registry, b, version, dir).ok() &&
                        Retire(*s.registry, b, version - kLiveVersions, dir)
                            .ok();
                  ++cycle;
                }),
                "us");
  if (!ok) report.Fail("journal probe: a publish cycle failed");
  ProbePinToggle(*s.registry, base[0].name, kLiveVersions + 1, report);
  s.server->Shutdown();
}

}  // namespace e2e
