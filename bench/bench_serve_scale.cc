// E20 — Serving saturation sweep: shard count × closed-loop client
// population, one work-conserving dispatcher per shard.
//
// The workload is 32 small VQC models (8 qubits — cheap enough that the
// serving runtime, not the simulator, is the bottleneck) spread evenly
// across shards by construction: model names are *searched* at setup until
// ShardFor places exactly kModels / kShards of them on every shard, so the
// sweep measures sharding, not hash luck. Clients run closed-loop
// (submit → block → next) over the model set and measure per-request
// latency client-side.
//
// Each shard is a queue, a lock and a dispatcher thread, so the shard axis
// measures what parallel dispatch and split queue locks buy on this host's
// cores; the client axis measures saturation. The sweep's gates live in
// scripts/serve_sweep.sh (absolute req/s and p99 floors per host, plus
// 8 shards beating 1 shard at 64 clients on ≥ 4 cores; see EXPERIMENTS.md
// E20).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "serve/inference_server.h"
#include "serve/model_registry.h"
#include "serve/servable.h"

namespace qdb {
namespace serve {
namespace {

constexpr int kQubits = 8;
constexpr int kModels = 32;
constexpr size_t kPlacementShards = 8;  // The largest swept shard count.

ModelArtifact SmallVqcArtifact(const std::string& name, uint64_t seed) {
  Rng rng(seed);
  ModelArtifact a;
  a.type = ModelType::kVqcClassifier;
  a.name = name;
  a.num_features = kQubits;
  a.encoding = VqcEncoding::kAngle;
  a.ansatz_layers = 2;
  a.entanglement = Entanglement::kLinear;
  a.feature_scale = 1.0;
  a.params.resize(RealAmplitudesParamCount(kQubits, a.ansatz_layers));
  for (auto& p : a.params) p = rng.Uniform(-0.5, 0.5);
  return a;
}

/// Model names balanced across the largest swept shard count: candidate
/// names are probed through the server's own routing hash until every
/// shard owns exactly kModels / kPlacementShards of them. Smaller shard
/// counts then see a coarser but still deterministic spread.
std::vector<std::string> BalancedModelNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    std::vector<int> per_shard(kPlacementShards, 0);
    const int quota = kModels / static_cast<int>(kPlacementShards);
    for (int candidate = 0; static_cast<int>(out.size()) < kModels;
         ++candidate) {
      const std::string name = StrCat("scale-vqc-", candidate);
      const size_t shard = InferenceServer::ShardFor(name, 1,
                                                     kPlacementShards);
      if (per_shard[shard] >= quota) continue;
      ++per_shard[shard];
      out.push_back(name);
    }
    return out;
  }();
  return names;
}

std::vector<DVector> MakeQueries(int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<DVector> queries(count, DVector(kQubits));
  for (auto& q : queries) {
    for (auto& v : q) v = rng.Uniform(0.0, M_PI);
  }
  return queries;
}

void BM_ServeSaturation(benchmark::State& state) {
  const int num_shards = static_cast<int>(state.range(0));
  const int clients = static_cast<int>(state.range(1));
  // Small client counts get more requests each so every configuration
  // measures at least 64 requests per iteration.
  const int per_client = std::max(8, 64 / clients);
  const int total = clients * per_client;

  const std::vector<std::string> names = BalancedModelNames();
  ModelRegistry registry;
  for (int m = 0; m < kModels; ++m) {
    if (!registry.Register(SmallVqcArtifact(names[m], 100 + m)).ok()) {
      state.SkipWithError("register failed");
      return;
    }
  }

  ServerOptions opts;
  opts.num_shards = num_shards;
  opts.queue_capacity = 4096;
  opts.max_batch_size = 16;
  opts.result_cache_capacity = 0;  // Measure the runtime, not memoization.
  opts.enable_breaker = false;     // No admission noise in the sweep.
  opts.enable_slo = false;
  InferenceServer server(registry, opts);
  if (!server.Start().ok()) {
    state.SkipWithError("server failed to start");
    return;
  }

  const std::vector<DVector> queries = MakeQueries(total, 71);
  std::vector<double> latencies_us;
  std::mutex latencies_mu;
  std::atomic<int> ok_count{0};
  long requests_done = 0;

  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        std::vector<double> local;
        local.reserve(per_client);
        // Each client picks models at random (deterministic per client):
        // mixed traffic with no lockstep convoys, so batches coalesce only
        // from requests that genuinely queue together.
        Rng rng(1000 + c);
        for (int i = 0; i < per_client; ++i) {
          InferenceRequest request;
          request.model = names[rng.UniformInt(0, kModels - 1)];
          request.input = queries[c * per_client + i];
          const auto start = std::chrono::steady_clock::now();
          auto response = server.Submit(std::move(request)).get();
          const auto elapsed = std::chrono::steady_clock::now() - start;
          if (response.ok()) {
            ok_count.fetch_add(1, std::memory_order_relaxed);
            local.push_back(static_cast<double>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    elapsed)
                    .count()));
          }
        }
        std::lock_guard<std::mutex> lock(latencies_mu);
        latencies_us.insert(latencies_us.end(), local.begin(), local.end());
      });
    }
    for (auto& t : threads) t.join();
    requests_done += total;
  }
  const auto stats = server.stats();
  server.Shutdown();

  if (latencies_us.empty() || ok_count.load() != requests_done) {
    state.SkipWithError("requests failed");
    return;
  }
  std::sort(latencies_us.begin(), latencies_us.end());
  const size_t p99_index =
      std::min(latencies_us.size() - 1,
               static_cast<size_t>(
                   0.99 * static_cast<double>(latencies_us.size())));
  state.counters["req_per_s"] = benchmark::Counter(
      static_cast<double>(requests_done), benchmark::Counter::kIsRate);
  state.counters["p50_us"] = latencies_us[latencies_us.size() / 2];
  state.counters["p99_us"] = latencies_us[p99_index];
  state.counters["shards"] = num_shards;
  state.counters["clients"] = clients;
  state.counters["fifo_violations"] =
      static_cast<double>(stats.fifo_violations);
  if (stats.batches > 0) {
    state.counters["avg_batch"] = static_cast<double>(stats.completed) /
                                  static_cast<double>(stats.batches);
  }
  state.SetLabel(StrCat(num_shards, "s/", clients, "c"));
}

BENCHMARK(BM_ServeSaturation)
    ->ArgsProduct({{1, 2, 4, 8}, {1, 4, 16, 64, 256}})
    ->ArgNames({"shards", "clients"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace serve
}  // namespace qdb

BENCHMARK_MAIN();
