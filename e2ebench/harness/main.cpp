// e2ebench: client-visible latency of shim(P) on an in-process threaded
// cluster, per workload, with a traced per-layer breakdown.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// --trace 0 splits the S measured seconds over K = S/5 fresh deployments
// of 5 s windows each, after one unmeasured warm-up deployment of the same
// shape, and prints the end-to-end metrics over them: latency percentiles
// of the pooled samples, medians of the rates, the process peak RSS
// through the warm-up deployment, and setup_s as the median of at least
// kMinSetups set-ups. Fresh deployments re-draw the beat phases between
// servers, which a single long window cannot average out. --trace 1 runs
// kTracePairs untraced and traced deployments with the same window,
// interleaved, and prints the per-layer metrics of the last traced one,
// with harness.trace_overhead_pct comparing CPU per request of the two
// kinds.
// Human-readable lines come first; the last line of stdout is one JSON
// object. Exit status: 0 when every check passed and every request
// completed, 1 when not (the JSON line is still printed), 2 on a usage
// error (nothing printed to stdout).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "schedule.h"
#include "util/rng.h"
#include "workload.h"

namespace {

using namespace e2ebench;

constexpr double kWindowSeconds = 5;
constexpr std::size_t kMinSetups = 5;
// Untraced/traced deployment pairs of a traced run, interleaved so that
// neither side always runs on a fresh heap.
constexpr int kTracePairs = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string work_dir = ".bench_build/e2ebench-work";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "e2ebench: %s\n", why);
  std::fprintf(stderr,
               "usage: e2ebench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\nworkloads:");
  for (const WorkloadSpec& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      a.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad value for " + flag).c_str());
  }
  if (find_workload(a.workload) == nullptr) usage("unknown or missing --workload");
  if (a.seconds <= 0 || a.seconds > 60) usage("--seconds must be in (0, 60]");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

using Metric = LayerMetric;

std::vector<Metric> end_to_end(const E2e& e) {
  return {{"lat_p50_ms", e.lat_p50_ms, "ms"},
          {"lat_p99_ms", e.lat_p99_ms, "ms"},
          {"goodput_rps", e.goodput_rps, "1/s"},
          {"cpu_ms_per_req", e.cpu_ms_per_req, "ms"},
          {"peak_rss_mb", e.peak_rss_mb, "MB"},
          {"setup_s", median(e.setup_s), "s"}};
}

void report(const E2e& e, const std::string& tag) {
  std::printf("%-12s", tag.c_str());
  for (const Metric& m : end_to_end(e)) {
    std::printf(" %s=%.4f%s", m.name.c_str(), m.value, m.unit);
  }
  std::printf(" attempted=%zu failed=%zu window_s=%.3f gen_late_ms_max=%.3f\n", e.attempted,
              e.failed, e.window_s, e.gen_late_ms_max);
  for (const std::string& err : e.errors) {
    std::printf("%-12s CHECK FAILED: %s\n", tag.c_str(), err.c_str());
  }
}

// One run's figures over its deployments: latency percentiles over the
// pooled samples, medians of the per-deployment rates, counts added up.
E2e combine(const std::vector<E2e>& runs) {
  E2e out;
  auto med = [&](double E2e::*field) {
    std::vector<double> v;
    for (const E2e& r : runs) v.push_back(r.*field);
    return median(v);
  };
  for (const E2e& r : runs) {
    out.errors.insert(out.errors.end(), r.errors.begin(), r.errors.end());
    out.attempted += r.attempted;
    out.failed += r.failed;
    out.setup_s.insert(out.setup_s.end(), r.setup_s.begin(), r.setup_s.end());
    out.gen_late_ms_max = std::max(out.gen_late_ms_max, r.gen_late_ms_max);
    out.peak_rss_mb = std::max(out.peak_rss_mb, r.peak_rss_mb);
    out.window_s += r.window_s;
    out.interpret_workers = r.interpret_workers;
    out.verifier_workers = r.verifier_workers;
  }
  // Latency percentiles pool every deployment's samples.
  for (const E2e& r : runs) {
    out.latency_ms.insert(out.latency_ms.end(), r.latency_ms.begin(), r.latency_ms.end());
  }
  const auto p50 = percentile(out.latency_ms, 0.50);
  const auto p99 = percentile(out.latency_ms, 0.99);
  if (!p50 || !p99) out.errors.push_back("too few latency samples for p50/p99");
  out.lat_p50_ms = p50.value_or(0);
  out.lat_p99_ms = p99.value_or(0);
  out.goodput_rps = med(&E2e::goodput_rps);
  out.cpu_ms_per_req = med(&E2e::cpu_ms_per_req);
  return out;
}

void print_json(bool correct, std::size_t attempted, std::size_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  // Windows of about kWindowSeconds; the traced mode runs its deployments
  // at that same operating point.
  const int windows = std::max(1, static_cast<int>(args.seconds / kWindowSeconds + 0.5));
  const int deployments = args.trace == 0 ? windows : kTracePairs;
  RunConfig cfg;
  cfg.spec = find_workload(args.workload);
  cfg.window_s = args.seconds / windows;
  cfg.work_dir = args.work_dir;
  std::printf("workload=%s seed=%llu seconds=%g trace=%d n=%u rate=%g req/s "
              "deployments=%d window_s=%g\n",
              cfg.spec->name, static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace, cfg.n, cfg.spec->rate_rps, deployments, cfg.window_s);

  // Every deployment draws its inputs from its own seed, derived from --seed.
  blockdag::SplitMix64 seeds(args.seed);
  // The first deployment in a process runs with a cold heap and vCPUs that
  // were idle a moment ago, and shows it at the tail; it is checked like
  // every other deployment but its figures are dropped.
  RunConfig warm_cfg = cfg;
  warm_cfg.seed = seeds.next();
  const E2e warmup = run_deployment(warm_cfg);
  report(warmup, "warmup");
  std::vector<E2e> runs;
  std::vector<E2e> traced_runs;
  MetricList layers;
  std::vector<std::string> notes;
  for (int i = 0; i < deployments; ++i) {
    cfg.seed = seeds.next();
    runs.push_back(run_deployment(cfg));
    report(runs.back(), "deploy#" + std::to_string(i));
    if (args.trace == 1) {
      // Per-layer figures come from the last traced deployment.
      layers.clear();
      notes.clear();
      traced_runs.push_back(run_traced(cfg, layers, notes));
      report(traced_runs.back(), "traced#" + std::to_string(i));
    }
  }
  E2e base = combine(runs);
  base.errors.insert(base.errors.begin(), warmup.errors.begin(), warmup.errors.end());
  // ru_maxrss only ever grows; the warm-up deployment runs the same window
  // on the process's fresh heap, so its peak is the figure of one
  // deployment.
  base.peak_rss_mb = warmup.peak_rss_mb;
  while (args.trace == 0 && base.correct() && base.setup_s.size() < kMinSetups) {
    cfg.seed = seeds.next();
    std::string error;
    if (const auto s = setup_only(cfg, error)) {
      base.setup_s.push_back(*s);
    } else {
      base.errors.push_back(error);
    }
  }
  report(base, "untraced");
  std::printf("host nproc=%ld hardware_concurrency=%u interpret_workers=%zu "
              "verifier_workers=%zu batching=on compiler=\"%s\" build=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), std::thread::hardware_concurrency(),
              base.interpret_workers, base.verifier_workers, E2EBENCH_COMPILER,
              E2EBENCH_BUILD_TYPE);

  if (args.trace == 0) {
    std::fflush(stdout);
    print_json(base.correct(), base.attempted, base.failed, end_to_end(base));
    return base.correct() ? 0 : 1;
  }

  const E2e traced = combine(traced_runs);
  report(traced, "traced");
  for (const std::string& note : notes) std::printf("%s\n", note.c_str());
  const bool correct = base.correct() && traced.correct();
  layers.push_back({"harness.trace_overhead_pct",
                    base.cpu_ms_per_req > 0
                        ? 100.0 * (traced.cpu_ms_per_req / base.cpu_ms_per_req - 1.0)
                        : 0.0,
                    "%"});
  for (const Metric& m : layers) {
    std::printf("layer %-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::fflush(stdout);
  print_json(correct, base.attempted + traced.attempted, base.failed + traced.failed,
             layers);
  return correct ? 0 : 1;
}
