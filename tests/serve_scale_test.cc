// Tests for the sharded serving runtime: deterministic shard routing,
// per-shard queue depths and health, work-conserving dispatch (one
// dispatcher per shard drains queued batches back to back, per-stream
// FIFO order intact), per-tenant token-bucket quotas (deterministic refill
// via an injected clock, the quota_rejected terminal bucket, quota/breaker
// isolation), and the stats identity under concurrent multi-shard load.
// Runs under TSan in tier1.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/strings.h"
#include "fault/fault_injector.h"
#include "serve/inference_server.h"
#include "serve/model_artifact.h"
#include "serve/model_registry.h"
#include "serve/servable.h"
#include "serve/tenant_quota.h"
#include "variational/ansatz.h"

namespace qdb {
namespace serve {
namespace {

// A hand-built angle-encoded classifier artifact (no training needed).
ModelArtifact TinyVqcArtifact(const std::string& name) {
  ModelArtifact a;
  a.type = ModelType::kVqcClassifier;
  a.name = name;
  a.num_features = 2;
  a.encoding = VqcEncoding::kAngle;
  a.ansatz_layers = 1;
  a.entanglement = Entanglement::kLinear;
  a.feature_scale = 0.8;
  const int count =
      RealAmplitudesParamCount(a.num_features, a.ansatz_layers);
  for (int i = 0; i < count; ++i) {
    a.params.push_back(0.3 + 0.17 * static_cast<double>(i));
  }
  return a;
}

InferenceRequest Request(const std::string& model, double x0, double x1,
                         const std::string& tenant = "") {
  InferenceRequest request;
  request.model = model;
  request.input = {x0, x1};
  request.tenant = tenant;
  return request;
}

/// Model names hashing to `count` distinct shards of a `num_shards`-way
/// server, found through the public routing function.
std::vector<std::string> NamesOnDistinctShards(size_t num_shards,
                                               size_t count) {
  std::vector<std::string> names;
  std::set<size_t> used;
  for (int candidate = 0; names.size() < count; ++candidate) {
    const std::string name = StrCat("shard-model-", candidate);
    const size_t shard = InferenceServer::ShardFor(name, 1, num_shards);
    if (used.insert(shard).second) names.push_back(name);
  }
  return names;
}

// ---- Tenant token buckets ---------------------------------------------------

TEST(TenantQuotaTest, RefillIsDeterministicUnderInjectedClock) {
  int64_t now_us = 0;
  TenantQuotaOptions options;
  options.default_spec.rate_per_s = 10.0;  // One token per 100ms.
  options.default_spec.burst = 2.0;
  TenantQuotaManager quotas(options, [&now_us] { return now_us; });

  // A fresh bucket starts full: exactly `burst` admissions, then empty.
  EXPECT_TRUE(quotas.TryAcquire("t"));
  EXPECT_TRUE(quotas.TryAcquire("t"));
  EXPECT_FALSE(quotas.TryAcquire("t"));

  // 50ms: half a token — still rejected.
  now_us += 50'000;
  EXPECT_FALSE(quotas.TryAcquire("t"));
  // +100ms more: ~1.5 tokens accrued (comfortably past 1.0 — refill math
  // is floating point, so the test never sits on the exact boundary),
  // spendable once.
  now_us += 100'000;
  EXPECT_TRUE(quotas.TryAcquire("t"));
  EXPECT_FALSE(quotas.TryAcquire("t"));

  // A long sleep clamps at burst, not unbounded accumulation.
  now_us += 10'000'000;
  EXPECT_TRUE(quotas.TryAcquire("t"));
  EXPECT_TRUE(quotas.TryAcquire("t"));
  EXPECT_FALSE(quotas.TryAcquire("t"));

  const auto states = quotas.Snapshot();
  ASSERT_EQ(states.size(), 1u);
  EXPECT_EQ(states[0].tenant, "t");
  EXPECT_EQ(states[0].admitted, 5);
  EXPECT_EQ(states[0].rejected, 4);
}

TEST(TenantQuotaTest, UnmeteredAndPerTenantSpecs) {
  int64_t now_us = 0;
  TenantQuotaOptions options;
  options.default_spec.rate_per_s = 0.0;  // Default-open: unmetered.
  options.per_tenant["noisy"] = {5.0, 1.0};
  TenantQuotaManager quotas(options, [&now_us] { return now_us; });

  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(quotas.TryAcquire("anyone"));
  }
  EXPECT_TRUE(quotas.TryAcquire("noisy"));   // Burst of 1.
  EXPECT_FALSE(quotas.TryAcquire("noisy"));  // Empty until refill.
  now_us += 400'000;  // 2 tokens at 5/s, clamped to the burst of 1.
  EXPECT_TRUE(quotas.TryAcquire("noisy"));
  EXPECT_EQ(quotas.tenant_count(), 2u);
}

TEST(TenantQuotaTest, TenantCardinalityCapSharesOverflowBucket) {
  int64_t now_us = 0;
  TenantQuotaOptions options;
  options.default_spec.rate_per_s = 1.0;
  options.default_spec.burst = 1.0;
  options.max_tenants = 2;
  TenantQuotaManager quotas(options, [&now_us] { return now_us; });

  EXPECT_TRUE(quotas.TryAcquire("a"));
  EXPECT_TRUE(quotas.TryAcquire("b"));
  // Tenants past the cap share one overflow bucket: the first stranger
  // drains its single token, the next stranger is rejected even though it
  // has never been seen before.
  EXPECT_TRUE(quotas.TryAcquire("stranger-1"));
  EXPECT_FALSE(quotas.TryAcquire("stranger-2"));
  EXPECT_EQ(quotas.tenant_count(), 2u);  // Overflow does not count.

  bool saw_overflow = false;
  for (const auto& state : quotas.Snapshot()) {
    saw_overflow |= state.tenant == TenantQuotaManager::kOverflowTenant;
  }
  EXPECT_TRUE(saw_overflow);
}

// ---- Shard routing ----------------------------------------------------------

TEST(ShardRoutingTest, DeterministicAndVersionSensitive) {
  // Same (model, version) → same shard, every call.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(InferenceServer::ShardFor("m", 1, 8),
              InferenceServer::ShardFor("m", 1, 8));
  }
  // Single shard degenerates to 0 without hashing.
  EXPECT_EQ(InferenceServer::ShardFor("anything", 3, 1), 0u);
  // Distinct models spread: at least half the shards of an 8-way server
  // see traffic from 64 distinct names (FNV-1a would have to be badly
  // broken to fail this).
  std::set<size_t> hit;
  for (int i = 0; i < 64; ++i) {
    hit.insert(InferenceServer::ShardFor(StrCat("model-", i), 1, 8));
  }
  EXPECT_GE(hit.size(), 4u);
}

// ---- Sharded server ---------------------------------------------------------

class ServeScaleTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::FaultInjector::Global().DisarmAll(); }

  void Register(const std::string& name) {
    auto servable = registry_.Register(TinyVqcArtifact(name));
    ASSERT_TRUE(servable.ok()) << servable.status();
  }

  ModelRegistry registry_;
};

TEST_F(ServeScaleTest, QueueDepthReportsSumAndMaxAcrossShards) {
  // Two models on distinct shards of a 4-shard server that is never
  // started: submissions sit in their shard queues where depth accounting
  // is observable.
  const auto names = NamesOnDistinctShards(4, 2);
  Register(names[0]);
  Register(names[1]);
  ServerOptions opts;
  opts.num_shards = 4;
  opts.result_cache_capacity = 0;
  InferenceServer server(registry_, opts);

  std::vector<std::future<Result<InferenceResponse>>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(server.Submit(Request(names[0], 0.1 * i, 0.2)));
  }
  futures.push_back(server.Submit(Request(names[1], 0.5, 0.6)));

  EXPECT_EQ(server.queue_depth(), 4u);      // Sum across shards.
  EXPECT_EQ(server.max_shard_depth(), 3u);  // The deepest single shard.
  size_t total = 0, deepest = 0, nonzero = 0;
  for (size_t depth : server.shard_depths()) {
    total += depth;
    deepest = std::max(deepest, depth);
    nonzero += depth > 0 ? 1 : 0;
  }
  EXPECT_EQ(total, 4u);
  EXPECT_EQ(deepest, 3u);
  EXPECT_EQ(nonzero, 2u);  // Exactly the two routed shards.

  server.Shutdown();  // Orphans resolve as rejected.
  for (auto& f : futures) EXPECT_FALSE(f.get().ok());
}

TEST_F(ServeScaleTest, HealthzDegradesWhenOneShardIsFull) {
  // Two models on the same shard of a 4-shard server. A latency fault
  // scoped to the first holds that shard's dispatcher inside its batch, so
  // requests for the second queue up behind it and fill the shard
  // deterministically. Healthz must flip on that single full shard even
  // though the total backlog (2 of 8) looks fine.
  const std::string blocker = "blocker";
  const size_t shard = InferenceServer::ShardFor(blocker, 1, 4);
  std::string filler;
  for (int candidate = 0;; ++candidate) {
    filler = StrCat("filler-", candidate);
    if (InferenceServer::ShardFor(filler, 1, 4) == shard) break;
  }
  Register(blocker);
  Register(filler);
  fault::FaultSpec hold;
  hold.kind = fault::FaultKind::kLatency;
  hold.latency_us = 500'000;
  hold.target = blocker;
  fault::FaultInjector::Global().Arm("serve.dispatch", hold);
  ServerOptions opts;
  opts.num_shards = 4;
  opts.queue_capacity = 8;  // ceil(8 / 4) = 2 per shard.
  opts.result_cache_capacity = 0;
  opts.enable_slo = false;
  InferenceServer server(registry_, opts);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.Healthz().ok());

  // Once the blocker leaves the queue its dispatcher is busy with it for
  // the length of the fault.
  auto held = server.Submit(Request(blocker, 0.7, 0.8));
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.queue_depth() != 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up)
        << "the dispatcher never popped the blocking request";
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  auto f1 = server.Submit(Request(filler, 0.1, 0.2));
  auto f2 = server.Submit(Request(filler, 0.3, 0.4));
  const Status health = server.Healthz();
  ASSERT_FALSE(health.ok());
  EXPECT_EQ(health.code(), StatusCode::kUnavailable);
  EXPECT_NE(health.message().find(StrCat("shard ", shard)), std::string::npos)
      << health;
  EXPECT_NE(health.message().find("at capacity"), std::string::npos);
  EXPECT_EQ(server.queue_depth(), 2u);
  EXPECT_EQ(server.max_shard_depth(), 2u);

  // The third submission overflows the shard and fails fast, naming the
  // *shard* bound rather than the global capacity.
  auto f3 = server.Submit(Request(filler, 0.5, 0.6));
  ASSERT_EQ(f3.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const auto overflow = f3.get();
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(overflow.status().message().find("shard"), std::string::npos)
      << overflow.status();

  // Shutdown drains: the held batch finishes, then the two queued
  // requests execute before the dispatcher exits.
  server.Shutdown();
  EXPECT_TRUE(held.get().ok());
  EXPECT_TRUE(f1.get().ok());
  EXPECT_TRUE(f2.get().ok());
  const auto stats = server.stats();
  EXPECT_EQ(stats.completed, 3);
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.fifo_violations, 0);
}

TEST_F(ServeScaleTest, UnstartedFullShardReportsShardCapacityAndHealth) {
  const auto names = NamesOnDistinctShards(4, 1);
  Register(names[0]);
  ServerOptions opts;
  opts.num_shards = 4;
  opts.queue_capacity = 8;  // 2 per shard.
  opts.result_cache_capacity = 0;
  InferenceServer server(registry_, opts);
  // Not started: submissions queue, the third into one shard fails fast.
  auto f1 = server.Submit(Request(names[0], 0.1, 0.2));
  auto f2 = server.Submit(Request(names[0], 0.3, 0.4));
  auto f3 = server.Submit(Request(names[0], 0.5, 0.6));
  ASSERT_EQ(f3.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const auto overflow = f3.get();
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(overflow.status().message().find("shard"), std::string::npos)
      << overflow.status();
  EXPECT_EQ(server.max_shard_depth(), 2u);
  // Statusz renders the per-shard ladder.
  const std::string statusz = server.Statusz();
  EXPECT_NE(statusz.find("shard 0"), std::string::npos) << statusz;
  EXPECT_NE(statusz.find("max_shard_depth"), std::string::npos);
  server.Shutdown();
  (void)f1.get();
  (void)f2.get();
}

TEST_F(ServeScaleTest, QueuedDistinctModelsDrainBackToBack) {
  // kModels requests for kModels distinct models, all queued on the single
  // shard before Start(): each request is its own batch, and a
  // work-conserving dispatcher starts each batch as soon as the previous
  // one resolves. A dispatcher that held an under-full batch open for a
  // coalescing window would idle that whole window before every batch
  // (nothing arrives to close it early): with a 200 µs window, every gap
  // below is at least 200 µs. The median gap is a few µs natively and
  // under 100 µs under TSan; the median ignores scheduler stalls.
  constexpr int kModels = 128;
  constexpr long kMedianGapBoundUs = 150;
  for (int m = 0; m < kModels; ++m) Register(StrCat("drain-", m));
  ServerOptions opts;
  opts.result_cache_capacity = 0;
  opts.enable_slo = false;
  InferenceServer server(registry_, opts);
  using Clock = std::chrono::steady_clock;
  std::vector<Clock::time_point> submit_times;
  std::vector<std::future<Result<InferenceResponse>>> futures;
  for (int m = 0; m < kModels; ++m) {
    submit_times.push_back(Clock::now());
    futures.push_back(server.Submit(Request(StrCat("drain-", m), 0.2, 0.4)));
  }
  ASSERT_EQ(server.queue_depth(), static_cast<size_t>(kModels));

  ASSERT_TRUE(server.Start().ok());
  std::vector<InferenceResponse> responses;
  for (auto& f : futures) {
    auto response = f.get();
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response.value().batch_size, 1u);
    responses.push_back(std::move(response).value());
  }
  server.Shutdown();

  // Batch i's dispatch and resolution instants, from its Submit time plus
  // the response's queue wait and total (the few µs Submit spends before
  // stamping admission are noise well below the bound).
  const auto submitted_us = [&](int i) {
    return static_cast<long>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            submit_times[i] - submit_times[0])
            .count());
  };
  std::vector<long> gaps_us;
  for (int i = 1; i < kModels; ++i) {
    const long resolved_prev =
        submitted_us(i - 1) + responses[i - 1].trace.total_us;
    const long dispatched = submitted_us(i) + responses[i].queue_wait_us;
    gaps_us.push_back(dispatched - resolved_prev);
  }
  std::sort(gaps_us.begin(), gaps_us.end());
  EXPECT_LT(gaps_us[gaps_us.size() / 2], kMedianGapBoundUs)
      << "idle between batches: min " << gaps_us.front() << " us, median "
      << gaps_us[gaps_us.size() / 2] << " us, max " << gaps_us.back()
      << " us";
  const auto stats = server.stats();
  EXPECT_EQ(stats.completed, kModels);
  EXPECT_EQ(stats.batches, kModels);
  EXPECT_EQ(stats.fifo_violations, 0);
}

TEST_F(ServeScaleTest, ConcurrentMultiShardLoadKeepsStatsIdentityAndFifo) {
  // The TSan-relevant stress: many client threads, models on every shard,
  // quotas on (some rejections), one dispatcher per shard. Afterwards
  // every submission must land in exactly one terminal bucket and the
  // FIFO audit must be clean.
  const auto names = NamesOnDistinctShards(4, 4);
  for (const auto& name : names) Register(name);
  ServerOptions opts;
  opts.num_shards = 4;
  opts.queue_capacity = 64;
  opts.result_cache_capacity = 0;
  opts.enable_slo = false;
  opts.enable_quotas = true;
  opts.quota.default_spec.rate_per_s = 0.0;  // Most tenants unmetered…
  opts.quota.per_tenant["throttled"] = {1.0, 2.0};  // …one is squeezed.
  InferenceServer server(registry_, opts);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 24;
  std::atomic<int> ok_count{0}, quota_rejected{0}, other{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string tenant =
            t == 0 ? "throttled" : StrCat("tenant-", t);
        auto result = server
                          .Submit(Request(names[(t + i) % names.size()],
                                          0.01 * i, 0.4, tenant))
                          .get();
        if (result.ok()) {
          ok_count.fetch_add(1);
        } else if (result.status().code() ==
                   StatusCode::kResourceExhausted) {
          quota_rejected.fetch_add(1);
        } else {
          other.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto stats = server.stats();
  server.Shutdown();

  EXPECT_EQ(stats.submitted, kThreads * kPerThread);
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.cache_hits + stats.degraded +
                stats.rejected + stats.quota_rejected + stats.expired +
                stats.failed)
      << "every request must land in exactly one terminal bucket";
  EXPECT_EQ(stats.fifo_violations, 0);
  // The throttled tenant (burst 2 + ~0 refill over the test) must have
  // been shed at least once, and client-observed outcomes must agree with
  // server-side tallies.
  EXPECT_GT(stats.quota_rejected, 0);
  EXPECT_EQ(stats.quota_rejected, quota_rejected.load());
  EXPECT_EQ(stats.completed + stats.cache_hits + stats.degraded,
            ok_count.load());
}

TEST_F(ServeScaleTest, QuotaRejectionsNeverTouchBreakers) {
  Register("quota-iso");
  ServerOptions opts;
  opts.num_shards = 2;
  opts.enable_quotas = true;
  opts.quota.default_spec.rate_per_s = 0.001;  // Effectively no refill.
  opts.quota.default_spec.burst = 1.0;
  opts.result_cache_capacity = 0;
  InferenceServer server(registry_, opts);
  ASSERT_TRUE(server.Start().ok());

  // One admission spends the only token (and lazily creates the breaker);
  // the storm after it is shed by quota, before the breaker sees anything.
  ASSERT_TRUE(server.Submit(Request("quota-iso", 0.1, 0.2, "t")).get().ok());
  const auto* breaker = server.breaker("quota-iso", 1);
  ASSERT_NE(breaker, nullptr);
  const auto before = breaker->stats();
  for (int i = 0; i < 50; ++i) {
    auto result = server.Submit(Request("quota-iso", 0.1, 0.2, "t")).get();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  }
  const auto after = breaker->stats();
  server.Shutdown();
  // The breaker neither allowed nor shed nor recorded anything for the
  // quota storm: quota rejections are invisible to it.
  EXPECT_EQ(after.allowed, before.allowed);
  EXPECT_EQ(after.shed, before.shed);
  const auto stats = server.stats();
  EXPECT_EQ(stats.quota_rejected, 50);
  EXPECT_EQ(stats.rejected, 0);
}

TEST_F(ServeScaleTest, StatuszReportsTenantBuckets) {
  Register("statusz-model");
  ServerOptions opts;
  opts.num_shards = 2;
  opts.enable_quotas = true;
  opts.quota.default_spec.rate_per_s = 100.0;
  opts.quota.default_spec.burst = 8.0;
  InferenceServer server(registry_, opts);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(
      server.Submit(Request("statusz-model", 0.1, 0.2, "acme")).get().ok());
  const std::string statusz = server.Statusz();
  EXPECT_NE(statusz.find("tenants: 1"), std::string::npos) << statusz;
  EXPECT_NE(statusz.find("acme"), std::string::npos);
  EXPECT_NE(statusz.find("quota_rejected=0"), std::string::npos);
  server.Shutdown();
}

TEST_F(ServeScaleTest, SingleShardMatchesLegacyBehavior) {
  // num_shards = 1 (the default) is one queue with one dispatcher: the
  // shard bound is the whole queue capacity, and overflow fails fast.
  Register("legacy");
  ServerOptions opts;
  opts.queue_capacity = 2;
  opts.result_cache_capacity = 0;
  InferenceServer server(registry_, opts);  // Never started.
  auto f1 = server.Submit(Request("legacy", 0.1, 0.2));
  auto f2 = server.Submit(Request("legacy", 0.3, 0.4));
  auto f3 = server.Submit(Request("legacy", 0.5, 0.6));
  auto overflow = f3.get();
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(server.queue_depth(), 2u);
  EXPECT_EQ(server.max_shard_depth(), 2u);
  EXPECT_EQ(server.shard_depths().size(), 1u);
  server.Shutdown();
  (void)f1.get();
  (void)f2.get();
  const auto stats = server.stats();
  EXPECT_EQ(stats.rejected, 3);  // The overflow plus two shutdown orphans.
  EXPECT_EQ(stats.fifo_violations, 0);
}

}  // namespace
}  // namespace serve
}  // namespace qdb
