#include "harness.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace e2e {

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not a finite number");
    value = 0.0;
  }
  metrics_.push_back({name, {value, unit}});
}

bool Report::Has(const std::string& name) const {
  for (const auto& m : metrics_) {
    if (m.first == name) return true;
  }
  return false;
}

void Report::Fail(const std::string& what) {
  ++failures_;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

std::string Report::Json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.first);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metric.second + "\"}";
  }
  out += "}}";
  return out;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_stime.tv_sec +
         1e-6 * (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is KiB on Linux.
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

size_t LastLevelCacheBytes() {
  long bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (bytes <= 0) bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (bytes <= 0) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
    std::string text;
    if (in >> text && !text.empty()) {
      bytes = std::atol(text.c_str());
      if (text.back() == 'K') bytes <<= 10;
      if (text.back() == 'M') bytes <<= 20;
    }
  }
  return bytes > 0 ? static_cast<size_t>(bytes) : size_t{32} << 20;
}

}  // namespace

std::string HostStampJson() {
  const char* threads = std::getenv("QDB_THREADS");
  return "{\"cpu\": " + JsonString(CpuModel()) +
         ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"compiler\": " + JsonString(std::string("g++ ") + __VERSION__) +
         ", \"qdb_threads\": " +
         JsonString(threads != nullptr ? threads : "unset") + "}";
}

double StreamCopyGbps() {
  const size_t bytes =
      std::clamp(4 * LastLevelCacheBytes(), size_t{64} << 20, size_t{1} << 30);
  std::unique_ptr<char[]> src(new char[bytes]);
  std::unique_ptr<char[]> dst(new char[bytes]);
  std::memset(src.get(), 1, bytes);
  std::memset(dst.get(), 0, bytes);
  std::vector<double> rates;
  for (int pass = 0; pass < 5; ++pass) {
    const auto start = Clock::now();
    std::memcpy(dst.get(), src.get(), bytes);
    const double s = SecondsSince(start);
    rates.push_back(2.0 * static_cast<double>(bytes) / s / 1e9);
    src[pass] = dst[bytes - 1 - pass];  // Keep the copies observable.
  }
  return Median(rates);
}

double WriteFsyncMicros(const std::string& path, const std::string& bytes) {
  const auto start = Clock::now();
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return 0.0;
  const ssize_t written = ::write(fd, bytes.data(), bytes.size());
  const int synced = ::fsync(fd);
  ::close(fd);
  const double us = MicrosSince(start);
  ::unlink(path.c_str());
  return written == static_cast<ssize_t>(bytes.size()) && synced == 0 ? us
                                                                       : 0.0;
}

void Reservoir::Add(double value) {
  if (values_.empty()) return;
  if (seen_ < values_.size()) {
    values_[seen_] = value;
  } else {
    // xorshift64: cheap, and independent of the traffic's generators.
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    const size_t slot = static_cast<size_t>(state_ % (seen_ + 1));
    if (slot < values_.size()) values_[slot] = value;
  }
  ++seen_;
}

void Reservoir::AppendTo(std::vector<double>& out) const {
  const size_t kept = std::min(seen_, values_.size());
  out.insert(out.end(), values_.begin(), values_.begin() + kept);
}

double LoadResult::ThroughputRps() const { return Median(window_rps); }
double LoadResult::CpuUsPerReq() const { return Median(window_cpu_us); }

LoadResult RunClosedLoop(qdb::serve::InferenceServer& server, int clients,
                         double warmup_s, double seconds, double window_s,
                         const RequestFn& make_request,
                         const CompletionFn& on_completion) {
  struct ClientTally {
    explicit ClientTally(uint64_t seed)
        : latency_us(kSamplesPerClient, seed),
          queue_wait_us(kSamplesPerClient, seed + 1),
          exec_us(kSamplesPerClient, seed + 2),
          tax_us(kSamplesPerClient, seed + 3) {}
    long attempted = 0;
    long failed = 0;
    Reservoir latency_us, queue_wait_us, exec_us, tax_us;
  };
  std::vector<ClientTally> tallies;
  tallies.reserve(clients);
  for (int c = 0; c < clients; ++c) tallies.emplace_back(4 * c + 1);
  LoadResult result;
  for (auto* v : {&result.latency_us, &result.queue_wait_us, &result.exec_us,
                  &result.tax_us}) {
    v->reserve(kSamplesPerClient * clients);
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> measuring{false};
  std::atomic<long> completed{0};

  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientTally& tally = tallies[c];
      for (long i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        qdb::serve::InferenceRequest request = make_request(c, i);
        const bool measured = measuring.load(std::memory_order_relaxed);
        const auto start = Clock::now();
        auto response = [&] {
          qdb::obs::TraceSpan span("bench.request", "bench");
          return server.Submit(request).get();
        }();
        const double latency = MicrosSince(start);
        const bool ok = on_completion(c, response);
        if (!measured) continue;
        ++tally.attempted;
        if (!ok) ++tally.failed;
        tally.latency_us.Add(latency);
        if (response.ok() && !response.value().from_cache) {
          const auto& trace = response.value().trace;
          tally.queue_wait_us.Add(trace.queue_wait_us);
          tally.exec_us.Add(trace.exec_us);
          tally.tax_us.Add(trace.total_us - trace.exec_us);
        }
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::duration<double>(warmup_s));
  const auto stats0 = server.stats();
  const auto start = Clock::now();
  auto window_start = start;
  double cpu_prev = ProcessCpuSeconds();
  long done_prev = completed.load();
  measuring.store(true);
  const int windows =
      std::max(1, static_cast<int>(std::lround(seconds / window_s)));
  for (int w = 1; w <= windows; ++w) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(w * window_s)));
    const long done = completed.load();
    const double cpu = ProcessCpuSeconds();
    const long delta = done - done_prev;
    result.window_rps.push_back(delta / SecondsSince(window_start));
    if (delta > 0) result.window_cpu_us.push_back((cpu - cpu_prev) * 1e6 / delta);
    window_start = Clock::now();
    done_prev = done;
    cpu_prev = cpu;
  }
  measuring.store(false);
  std::fprintf(stderr, "closed loop: %d windows, completed/s min %.0f median %.0f max %.0f\n",
               windows, Quantile(result.window_rps, 0.0),
               Median(result.window_rps), Quantile(result.window_rps, 1.0));
  stop.store(true);
  for (auto& t : threads) t.join();
  const auto stats1 = server.stats();

  auto& s = result.stats;
  s.submitted = stats1.submitted - stats0.submitted;
  s.completed = stats1.completed - stats0.completed;
  s.cache_hits = stats1.cache_hits - stats0.cache_hits;
  s.batches = stats1.batches - stats0.batches;
  for (auto& tally : tallies) {
    result.attempted += tally.attempted;
    result.failed += tally.failed;
    tally.latency_us.AppendTo(result.latency_us);
    tally.queue_wait_us.AppendTo(result.queue_wait_us);
    tally.exec_us.AppendTo(result.exec_us);
    tally.tax_us.AppendTo(result.tax_us);
  }
  return result;
}

void CheckServerInvariants(const qdb::serve::InferenceServer& server,
                           Report& report) {
  const auto s = server.stats();
  const long terminal = s.completed + s.cache_hits + s.degraded + s.rejected +
                        s.quota_rejected + s.expired + s.failed;
  if (s.submitted != terminal) {
    report.Fail("server stats identity: submitted " +
                std::to_string(s.submitted) + " != terminal buckets " +
                std::to_string(terminal));
  }
  if (s.fifo_violations != 0) {
    report.Fail("server recorded " + std::to_string(s.fifo_violations) +
                " per-stream FIFO violations");
  }
}

void AddServingMetrics(const LoadResult& load, Report& report) {
  report.Metric("p50_us", Median(load.latency_us), "us");
}

void AddServerLayerMetrics(const LoadResult& load, Report& report) {
  const auto& s = load.stats;
  report.Metric("server.throughput_rps", load.ThroughputRps(), "1/s");
  report.Metric("server.cpu_us_per_req", load.CpuUsPerReq(), "us");
  report.Metric("server.queue_wait_us_p50", Median(load.queue_wait_us), "us");
  report.Metric("server.tax_us_p50", Median(load.tax_us), "us");
  report.Metric("server.exec_us_p50", Median(load.exec_us), "us");
  report.Metric("server.batch_size_mean",
                s.batches > 0 ? static_cast<double>(s.completed) / s.batches
                              : 0.0,
                "count");
  report.Metric("server.batches", static_cast<double>(s.batches), "count");
  report.Metric("server.p99_us", Quantile(load.latency_us, 0.99), "us");
  report.Metric("cache.hit_ratio",
                s.submitted > 0
                    ? static_cast<double>(s.cache_hits) / s.submitted
                    : 0.0,
                "ratio");
}

void LogSeries(const char* what, const std::vector<double>& values) {
  std::string line = what;
  line += ":";
  for (double v : values) line += " " + std::to_string(v);
  std::fprintf(stderr, "%s\n", line.c_str());
}

double MedianMicros(int reps, const std::function<void()>& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    fn();
    times.push_back(MicrosSince(start));
  }
  return Median(times);
}

void WriteTraceReport(const std::string& dir, const std::string& name) {
  auto& log = qdb::obs::TraceLog::Global();
  const std::string base = dir + "/" + name;
  if (auto s = log.WriteChromeTrace(base + ".trace.json"); !s.ok()) {
    std::fprintf(stderr, "trace write failed: %s\n", s.ToString().c_str());
  }
  // Self time of a span: its duration minus the union of its children's
  // intervals (clipped to the span), children on any thread included.
  const std::vector<qdb::obs::TraceEvent> events = log.Snapshot();
  std::unordered_map<uint64_t, std::vector<size_t>> children;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].parent_span_id != 0) {
      children[events[i].parent_span_id].push_back(i);
    }
  }
  struct Row {
    long count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::map<std::string, Row> rows;
  for (const auto& e : events) {
    const int64_t begin = e.start_us;
    const int64_t end = e.start_us + e.duration_us;
    std::vector<std::pair<int64_t, int64_t>> spans;
    if (e.span_id != 0) {
      auto it = children.find(e.span_id);
      if (it != children.end()) {
        for (size_t c : it->second) {
          const auto& child = events[c];
          const int64_t cb = std::max(begin, child.start_us);
          const int64_t ce = std::min(end, child.start_us + child.duration_us);
          if (ce > cb) spans.push_back({cb, ce});
        }
      }
    }
    std::sort(spans.begin(), spans.end());
    int64_t covered = 0;
    int64_t cursor = begin;
    for (const auto& [cb, ce] : spans) {
      const int64_t from = std::max(cursor, cb);
      if (ce > from) covered += ce - from;
      cursor = std::max(cursor, ce);
    }
    Row& row = rows[std::string(e.category) + "/" + e.name];
    ++row.count;
    row.total_us += static_cast<double>(e.duration_us);
    row.self_us += static_cast<double>(e.duration_us - covered);
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_us > b.second.self_us;
  });
  std::string table = "span                                          count"
                      "      total_ms       self_ms\n";
  std::string json_rows;
  for (const auto& [span, row] : sorted) {
    char line[256];
    std::snprintf(line, sizeof(line), "%-44s %7ld %13.3f %13.3f\n",
                  span.c_str(), row.count, row.total_us / 1e3,
                  row.self_us / 1e3);
    table += line;
    if (!json_rows.empty()) json_rows += ",";
    json_rows += "{\"span\": " + JsonString(span) +
                 ", \"count\": " + std::to_string(row.count) +
                 ", \"total_us\": " + std::to_string(row.total_us) +
                 ", \"self_us\": " + std::to_string(row.self_us) + "}";
  }
  std::printf("self time per span (%zu events, %zu dropped):\n%s",
              events.size(), log.dropped(), table.c_str());
  std::ofstream out(base + ".report.json");
  out << "{\"host\": " << HostStampJson() << ", \"events\": " << events.size()
      << ", \"dropped_events\": " << log.dropped() << ", \"self_time\": ["
      << json_rows << "], \"metrics_registry\": "
      << qdb::obs::MetricsRegistry::Global().ExportJson() << "}\n";
}

}  // namespace e2e
