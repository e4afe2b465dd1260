// qdb_e2ebench: the repository's end-to-end benchmark binary.
//
//   qdb_e2ebench --workload cardest_fleet|rollout --seed N
//                --seconds S --trace 0|1 --work-dir DIR
//
// With --trace 0 it measures the end-to-end metrics with tracing off; with
// --trace 1 it makes the traced run that reports the per-layer metrics and
// writes a Chrome trace, a self-time table and the metrics-registry
// snapshot under DIR. It prints a host stamp line and, as the last line of
// standard output, one JSON object: correct, attempted, failed, metrics.
// e2ebench/run.py builds this binary and is the command to run.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, e2e::Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args.workload.empty() && !args.work_dir.empty() &&
         args.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR\n",
                 argv[0]);
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", args.work_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }

  e2e::Report report;
  int status = 2;
  if (args.workload == "cardest_fleet") {
    status = e2e::RunCardestFleet(args, report);
  } else if (args.workload == "rollout") {
    status = e2e::RunRollout(args, report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
  }
  if (status != 0) return status;
  if (!args.trace) report.Metric("peak_rss_mb", e2e::PeakRssMiB(), "MiB");
  std::printf("host %s\n", e2e::HostStampJson().c_str());
  std::printf("%s\n", report.Json().c_str());
  return 0;
}
