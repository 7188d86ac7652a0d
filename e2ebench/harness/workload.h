// The benchmark's workloads and one measured deployment of each.
//
// A workload is an open-loop client load against an in-process
// rt::ThreadedRuntime cluster of n = 4 servers. One deployment constructs
// the cluster (timed as set-up, until every link is up and one warm-up
// request per server was indicated everywhere), offers 1 s of warm-up load
// and then seeded Poisson arrivals for the measured window, drains, then
// converges the cluster and checks it: byte-identical DAG and
// interpretation digests on every server, and every request indicated
// exactly once, with its value, at every server.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "crypto/signature.h"
#include "rt/threaded_runtime.h"

namespace e2ebench {

enum class Proto { kBrb, kPbft };

struct WorkloadSpec {
  const char* name;
  Proto proto;
  blockdag::rt::TransportBackend backend;
  blockdag::SigScheme scheme;
  double rate_rps;
  bool to_leader;              // every request goes to the view-0 leader
  std::uint64_t epoch_blocks;  // > 0: a DataDir per server, checkpoint + GC
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(std::string_view name);

struct RunConfig {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double window_s = 5;   // the measured window of one deployment
  std::string work_dir;  // durable data dirs and the span file live here
  std::uint32_t n = 4;
};

// The user-visible numbers of one deployment.
struct E2e {
  std::vector<std::string> errors;  // empty = every check passed
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> latency_ms;  // n samples per completed request
  double lat_p50_ms = 0;
  double lat_p99_ms = 0;
  double goodput_rps = 0;
  double cpu_ms_per_req = 0;
  double peak_rss_mb = 0;
  std::vector<double> setup_s;  // one entry per set-up performed
  double gen_late_ms_max = 0;
  double window_s = 0;
  // Resolved runtime shape, for the host record.
  std::size_t interpret_workers = 0;
  std::size_t verifier_workers = 0;

  bool correct() const { return errors.empty(); }
};

struct LayerMetric {
  std::string name;
  double value;
  const char* unit;
};
using MetricList = std::vector<LayerMetric>;

// One fresh deployment: set-up, warm-up load, measured window, checks.
E2e run_deployment(const RunConfig& cfg);

// Set-up alone (the deployment is torn down again): seconds, or nullopt
// with `error` set.
std::optional<double> setup_only(const RunConfig& cfg, std::string& error);

// One deployment with the timing decorators and request spans on, followed
// by the serial replay of server 0's history. Fills `layers` with every
// per-layer metric except harness.trace_overhead_pct (the caller compares
// against an untraced run) and `notes` with human-readable replay lines.
E2e run_traced(const RunConfig& cfg, MetricList& layers,
               std::vector<std::string>& notes);

}  // namespace e2ebench
