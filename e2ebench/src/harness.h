// Shared machinery of the end-to-end benchmark: command-line arguments, the
// result record printed as the last line of standard output, the
// closed-loop load generator, timing and statistics helpers, the host
// stamp, and the traced-run report (Chrome trace + per-layer self time).
//
// The benchmark reaches the library only through its public entry points
// (ModelRegistry, InferenceServer::Submit, ServableModel::RunBatch,
// StateVectorSimulator::Run, the store functions and the trainers), so a
// change that removes an internal knob is measured without editing it.

#ifndef QDB_E2EBENCH_HARNESS_H_
#define QDB_E2EBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/inference_server.h"

namespace e2e {

/// Parsed command line: --workload --seed --seconds --trace --work-dir.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< Scratch directory for artifacts and journals.
};

/// What one run reports. Metrics are printed in insertion order.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Records a correctness failure: prints it to stderr at once and makes
  /// the run report "correct": false.
  void Fail(const std::string& what);
  /// Counts `n` attempted operations of which `failed` failed.
  void Count(long attempted, long failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool correct() const { return failures_ == 0; }
  bool Has(const std::string& name) const;
  /// The one-line JSON result: correct, attempted, failed, metrics.
  std::string Json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  long attempted_ = 0;
  long failed_ = 0;
  long failures_ = 0;
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Process CPU time (user + system), seconds.
double ProcessCpuSeconds();
/// Peak resident set size of the process, MiB.
double PeakRssMiB();

double Median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty input.
double Quantile(std::vector<double> values, double q);

/// CPU model, nproc, compiler and QDB_THREADS, as one JSON object.
std::string HostStampJson();

/// Copy bandwidth in GB/s (bytes read + bytes written per second) over two
/// arrays of at least four times the last-level cache each; median of a
/// few passes.
double StreamCopyGbps();

/// Writes `bytes` to `path` with plain write(2) + fsync(2) and returns the
/// time in µs: the device denominator for artifact saves and journal
/// appends.
double WriteFsyncMicros(const std::string& path, const std::string& bytes);

/// A uniform sample of fixed size from a stream of values (reservoir
/// sampling). The buffer is allocated and written when the reservoir is
/// made, so the benchmark's own resident memory does not grow with the
/// throughput it measures.
class Reservoir {
 public:
  explicit Reservoir(size_t capacity, uint64_t seed = 1)
      : values_(capacity, 0.0), state_(seed | 1) {}
  void Add(double value);
  /// Appends the kept values to `out`.
  void AppendTo(std::vector<double>& out) const;

 private:
  std::vector<double> values_;
  size_t seen_ = 0;
  uint64_t state_;
};

/// Builds client `client`'s request number `index`. Called only from that
/// client's thread, so per-client generator state needs no lock.
using RequestFn =
    std::function<qdb::serve::InferenceRequest(int client, long index)>;
/// Observes the response to the client's last request, on the client's own
/// thread. Returns false when it failed or is wrong (LoadResult::failed).
using CompletionFn = std::function<bool(
    int client, const qdb::Result<qdb::serve::InferenceResponse>& response)>;

/// The timed part of one closed loop.
struct LoadResult {
  long attempted = 0;  ///< Requests submitted inside the timed window.
  long failed = 0;
  /// Per-window completed/s and CPU µs per completed request.
  std::vector<double> window_rps;
  std::vector<double> window_cpu_us;
  /// Submit → response: a uniform sample of kSamplesPerClient requests
  /// per client over the timed window.
  std::vector<double> latency_us;
  /// From the responses' TraceSummary, executed (non-cached) requests
  /// only; sampled the same way.
  std::vector<double> queue_wait_us;
  std::vector<double> exec_us;
  std::vector<double> tax_us;  ///< total_us − exec_us.
  /// Delta over the window of submitted, completed, cache_hits, batches.
  qdb::serve::InferenceServer::Stats stats;

  double ThroughputRps() const;  ///< Median over windows.
  double CpuUsPerReq() const;    ///< Median over windows.
};

/// Per client and series, the number of samples RunClosedLoop keeps.
constexpr size_t kSamplesPerClient = size_t{1} << 13;

/// Runs `clients` closed-loop client threads against `server`: each sends
/// its next request only after the previous one returned. The first
/// `warmup_s` seconds are not measured; then the load runs `seconds` more,
/// sampled in windows of `window_s`. Every request submitted inside the
/// timed window counts as attempted.
LoadResult RunClosedLoop(qdb::serve::InferenceServer& server, int clients,
                         double warmup_s, double seconds, double window_s,
                         const RequestFn& make_request,
                         const CompletionFn& on_completion);

/// Checks the server's invariants: submitted == Σ terminal buckets and no
/// FIFO violation. Failures go to `report`.
void CheckServerInvariants(const qdb::serve::InferenceServer& server,
                           Report& report);

/// Adds the e2e serving metrics of a timed closed loop.
void AddServingMetrics(const LoadResult& load, Report& report);
/// Adds the server.* and cache.* per-layer metrics of a closed loop.
void AddServerLayerMetrics(const LoadResult& load, Report& report);

/// Prints `values` to stderr as "what: v1 v2 ...", for diagnosis.
void LogSeries(const char* what, const std::vector<double>& values);

/// Median of `reps` timings of `fn`, µs.
double MedianMicros(int reps, const std::function<void()>& fn);

/// Traced-run output: writes the Chrome trace (benchmark spans plus the
/// library's own), the per-layer self-time table and the metrics-registry
/// snapshot under `dir`, and prints the self-time table to stdout.
void WriteTraceReport(const std::string& dir, const std::string& name);

}  // namespace e2e

#endif  // QDB_E2EBENCH_HARNESS_H_
