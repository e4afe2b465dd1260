// E19 — Observability overhead: what request-scoped tracing and dimensional
// metrics cost the serving hot path.
//
// Three layers, from microcosm to end to end:
//   * BM_LabeledMetricUpdate — the per-update cost of a labeled child,
//     resolved-once (the documented usage) vs re-looked-up per update, vs a
//     plain unlabeled counter. The resolved-pointer path must stay within
//     a few ns of the plain counter (one relaxed atomic add).
//   * BM_SpanRecording — QDB_TRACE_SCOPE cost with tracing disabled (one
//     relaxed load + branch) and enabled (two clock reads + a ring push),
//     with and without an ambient RequestContext.
//   * BM_ServingWithObservability — the E18 VQC serving workload with
//     tracing off vs on. Acceptance bar (gated in scripts/tier1.sh): the
//     traced req_per_s stays within 10% of the untraced baseline.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cmath>
#include <future>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "obs/labels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/inference_server.h"
#include "serve/model_registry.h"
#include "serve/servable.h"
#include "variational/ansatz.h"

namespace qdb {
namespace obs {
namespace {

enum LabelMode { kPlainCounter = 0, kResolvedChild = 1, kLookupPerUpdate = 2 };

void BM_LabeledMetricUpdate(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  auto& registry = MetricsRegistry::Global();
  Counter* plain = registry.GetCounter("bench.obs.plain");
  CounterFamily* family =
      registry.GetCounterFamily("bench.obs.labeled", {"model", "outcome"});
  Counter* resolved = family->With("bench-model", "ok");
  for (auto _ : state) {
    switch (mode) {
      case kPlainCounter:
        plain->Increment();
        break;
      case kResolvedChild:
        resolved->Increment();
        break;
      case kLookupPerUpdate:
        family->With("bench-model", "ok")->Increment();
        break;
    }
  }
  state.SetLabel(mode == kPlainCounter     ? "plain_counter"
                 : mode == kResolvedChild  ? "resolved_child"
                                           : "lookup_per_update");
  state.counters["ns_per_update"] = benchmark::Counter(
      static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

BENCHMARK(BM_LabeledMetricUpdate)
    ->Arg(kPlainCounter)
    ->Arg(kResolvedChild)
    ->Arg(kLookupPerUpdate);

enum SpanMode { kTracingOff = 0, kTracingOn = 1, kTracingOnWithContext = 2 };

void BM_SpanRecording(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  TraceLog::Global().Clear();
  if (mode == kTracingOff) {
    DisableTracing();
  } else {
    EnableTracing();
  }
  RequestContext ctx;
  if (mode == kTracingOnWithContext) ctx = RequestContext::NewRoot();
  ContextGuard guard(ctx);
  for (auto _ : state) {
    QDB_TRACE_SCOPE("bench.obs.span", "bench");
    benchmark::ClobberMemory();
  }
  DisableTracing();
  TraceLog::Global().Clear();
  state.SetLabel(mode == kTracingOff ? "tracing_off"
                 : mode == kTracingOn ? "tracing_on"
                                      : "tracing_on_with_context");
  state.counters["ns_per_span"] = benchmark::Counter(
      static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

BENCHMARK(BM_SpanRecording)
    ->Arg(kTracingOff)
    ->Arg(kTracingOn)
    ->Arg(kTracingOnWithContext);

// ---- End to end: the E18 serving workload, observability off vs on ----------

constexpr int kQubits = 12;
constexpr int kClients = 8;
constexpr int kRequestsPerClient = 8;
constexpr int kTotalRequests = kClients * kRequestsPerClient;

serve::ModelArtifact SyntheticVqcArtifact() {
  Rng rng(31);
  serve::ModelArtifact a;
  a.type = serve::ModelType::kVqcClassifier;
  a.name = "bench-vqc";
  a.num_features = kQubits;
  a.encoding = VqcEncoding::kAngle;
  a.ansatz_layers = 2;
  a.entanglement = Entanglement::kLinear;
  a.feature_scale = 1.0;
  a.params.resize(RealAmplitudesParamCount(kQubits, a.ansatz_layers));
  for (auto& p : a.params) p = rng.Uniform(-0.5, 0.5);
  return a;
}

std::vector<DVector> MakeQueries(int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<DVector> queries(count, DVector(kQubits));
  for (auto& q : queries) {
    for (auto& v : q) v = rng.Uniform(0.0, M_PI);
  }
  return queries;
}

int RunClients(serve::InferenceServer& server, const std::string& model,
               const std::vector<DVector>& queries) {
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  const int per_client = static_cast<int>(queries.size()) / kClients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::future<Result<serve::InferenceResponse>>> futures;
      for (int i = 0; i < per_client; ++i) {
        serve::InferenceRequest request;
        request.model = model;
        request.input = queries[c * per_client + i];
        futures.push_back(server.Submit(std::move(request)));
      }
      for (auto& f : futures) {
        if (f.get().ok()) ok_count.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  return ok_count.load();
}

enum ObsMode { kObservabilityOff = 0, kObservabilityOn = 1 };

void BM_ServingWithObservability(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  if (mode == kObservabilityOn) {
    TraceLog::Global().Clear();
    EnableTracing();
  } else {
    DisableTracing();
  }
  serve::ModelRegistry registry;
  if (!registry.Register(SyntheticVqcArtifact()).ok()) {
    state.SkipWithError("register failed");
    return;
  }
  serve::ServerOptions opts;
  opts.max_batch_size = 16;
  opts.result_cache_capacity = 0;  // Measure the full execution path.
  serve::InferenceServer server(registry, opts);
  if (!server.Start().ok()) {
    state.SkipWithError("server failed to start");
    return;
  }
  std::vector<DVector> queries = MakeQueries(kTotalRequests, 43);
  for (auto _ : state) {
    if (RunClients(server, "bench-vqc", queries) != kTotalRequests) {
      state.SkipWithError("requests failed");
      DisableTracing();
      return;
    }
  }
  server.Shutdown();
  DisableTracing();
  TraceLog::Global().Clear();
  state.SetLabel(mode == kObservabilityOn ? "obs_on" : "obs_off");
  state.counters["req_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kTotalRequests),
      benchmark::Counter::kIsRate);
  state.counters["qubits"] = kQubits;
  state.counters["clients"] = kClients;
}

BENCHMARK(BM_ServingWithObservability)
    ->Arg(kObservabilityOff)
    ->Arg(kObservabilityOn)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace obs
}  // namespace qdb

BENCHMARK_MAIN();
