// perfbench_workload — runs one benchmark workload in this process and
// prints one JSON result line.
//
//   perfbench_workload --workload <name> --seed <n> --seconds <s>
//                      --trace <0|1>
//
// --trace 0 repeats the workload's unit until <s> seconds have passed (and
// at least the workload's minimum number of units ran) and prints the
// end-to-end metrics.  --trace 1 runs one untraced and one
// traced unit of the same seed, checks that their virtual-time outputs
// are bit-identical, runs the host-clock layer probes, and prints the
// per-layer metrics.  Any failed correctness check prints the result with
// "correct": false and exits 1.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "support/sim_clock.h"

namespace sgxmig::perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"virtual_wall_s", "s"},   {"op_write_p50_ms", "ms"},
    {"op_write_p99_ms", "ms"}, {"op_read_p50_ms", "ms"},
    {"op_read_p99_ms", "ms"},  {"host_cpu_s", "s"},
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    // crypto (host probes)
    {"crypto.aes_block_ns", "ns"},
    {"crypto.aes_key_expand_ns", "ns"},
    {"crypto.gcm_seal_4k_us", "us"},
    {"crypto.gcm_open_4k_us", "us"},
    {"crypto.x25519_us", "us"},
    {"crypto.ed25519_verify_us", "us"},
    {"crypto.sha256_4k_us", "us"},
    // migration library (host probes) + fleet launch
    {"migration.lib.increment_host_us", "us"},
    {"migration.lib.read_host_us", "us"},
    {"migration.lib.seal_host_us", "us"},
    {"migration.lib.unseal_host_us", "us"},
    {"migration.lib.counter_create_host_us", "us"},
    {"orchestrator.launch_host_us", "us"},
    // paper reference (virtual time vs the baseline enclave)
    {"migration.lib.increment_overhead_pct", "%"},
    {"migration.lib.read_overhead_pct", "%"},
    // persistence + PSE (program counters)
    {"persist.commits", "count"},
    {"persist.flush_fences", "count"},
    {"persist.mutations_per_commit", "count"},
    {"pse.create", "count"},
    {"pse.increment", "count"},
    {"pse.read", "count"},
    {"pse.destroy", "count"},
    {"pse.retire", "count"},
    {"pse.reclaimed", "count"},
    // Migration Enclave
    {"me.handshake.full", "count"},
    {"me.handshake.resumed", "count"},
    {"me.handshake.resume_ratio", "ratio"},
    {"me.task_steps", "count"},
    {"me.fetches", "count"},
    {"me.confirms", "count"},
    {"me.queue_commits", "count"},
    {"me.queue_sealed_bytes", "B"},
    {"me.queue_blob_bytes_max", "B"},
    // network + migration payloads
    {"net.rpcs", "count"},
    {"net.posts", "count"},
    {"net.delivered", "count"},
    {"net.post_bytes_total", "B"},
    {"net.drops", "count"},
    {"migration.transfer_bytes_mean", "B"},
    {"migration.precopy_rounds", "count"},
    // migration protocol timings (virtual)
    {"migration.count", "count"},
    {"migration.freeze_p50_ms", "ms"},
    {"migration.freeze_p99_ms", "ms"},
    {"migration.latency_p50_s", "s"},
    {"migration.latency_p99_s", "s"},
    // orchestrator
    {"orchestrator.waves", "count"},
    {"orchestrator.task_touches", "count"},
    {"orchestrator.admission_checks", "count"},
    {"orchestrator.pump_kicks", "count"},
    {"orchestrator.retry_ratio", "ratio"},
    {"orchestrator.peak_inflight", "count"},
    {"orchestrator.control_plane_bytes", "B"},
    {"orchestrator.enqueue_wait_p50_ms", "ms"},
    {"orchestrator.enqueue_wait_p99_ms", "ms"},
    // virtual spans
    {"span.restore_p50_ms", "ms"},
    {"span.restore_p99_ms", "ms"},
    {"span.precopy_round_p50_ms", "ms"},
    {"span.finalize_p99_ms", "ms"},
    {"span.enqueue_wait_p99_ms", "ms"},
    // client sample counts
    {"client.write_ops", "count"},
    {"client.read_ops", "count"},
    // tracing itself
    {"trace.host_overhead_pct", "%"},
    {"trace.spans", "count"},
    {"trace.json_bytes", "B"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_workload: %s\nusage: perfbench_workload --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      usage("unknown flag");
    }
  }
  return args;
}

/// Mixes the workload name into the seed so the workloads of one seed
/// draw independent inputs.
uint64_t world_seed(const Args& args) {
  uint64_t h = 1469598103934665603ULL;
  for (const char ch : args.workload) {
    h = (h ^ static_cast<uint8_t>(ch)) * 1099511628211ULL;
  }
  return h ^ (args.seed * 0x9e3779b97f4a7c15ULL);
}

void print_result(bool correct, uint64_t attempted, uint64_t failed,
                  const std::vector<MetricDef>& defs,
                  const LayerValues& values) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < defs.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name, values.at(defs[i].name),
                defs[i].unit);
  }
  std::printf("}}\n");
}

void report_errors(const char* phase, const UnitResult& unit, bool& correct) {
  for (const std::string& error : unit.errors) {
    std::fprintf(stderr, "CHECK FAILED (%s): %s\n", phase, error.c_str());
  }
  if (!unit.errors.empty() || unit.failed != 0) correct = false;
}

int run_untraced(const WorkloadSpec& spec, const Args& args) {
  const uint64_t seed = world_seed(args);
  using HostClock = std::chrono::steady_clock;
  const auto start = HostClock::now();
  std::vector<UnitResult> units;
  do {
    units.push_back(spec.run_unit(seed, /*traced=*/false));
  } while (static_cast<int>(units.size()) < spec.min_units ||
           std::chrono::duration<double>(HostClock::now() - start).count() <
               args.seconds);

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> setups;
  std::vector<double> cpu;
  for (const UnitResult& unit : units) {
    report_errors("unit", unit, correct);
    if (!(unit.virt == units.front().virt)) {
      std::fprintf(stderr, "CHECK FAILED: virtual outputs differ between "
                           "units of one seed\n");
      correct = false;
    }
    attempted += unit.attempted;
    failed += unit.failed;
    setups.push_back(unit.setup_s);
    cpu.push_back(unit.cpu_s);
  }
  // Set-up is reported as a median of at least three builds of the world.
  while (setups.size() < 3) setups.push_back(spec.setup_only(seed));

  const VirtualSamples& v = units.front().virt;
  LayerValues values;
  values["virtual_wall_s"] = v.wall_s;
  values["op_write_p50_ms"] = percentile(v.write_ms, 50);
  values["op_write_p99_ms"] = percentile(v.write_ms, 99);
  values["op_read_p50_ms"] = percentile(v.read_ms, 50);
  values["op_read_p99_ms"] = percentile(v.read_ms, 99);
  values["host_cpu_s"] = median(cpu);
  values["setup_s"] = median(setups);
  values["peak_rss_mb"] = static_cast<double>(process_peak_rss_bytes()) / 1e6;
  std::printf("%s seed=%llu units=%zu setups=%zu n_write=%zu n_read=%zu "
              "n_migrations=%zu\n",
              spec.name, static_cast<unsigned long long>(args.seed),
              units.size(), setups.size(), v.write_ms.size(),
              v.read_ms.size(), v.migration_s.size());
  std::printf("host cpu per unit [s]:");
  for (const double c : cpu) std::printf(" %.4f", c);
  std::printf("\nset-up per build [s]:");
  for (const double s : setups) std::printf(" %.4f", s);
  std::printf("\n");
  print_result(correct && attempted > 0, attempted, failed, kEndToEnd,
               values);
  return correct ? 0 : 1;
}

int run_traced(const WorkloadSpec& spec, const Args& args) {
  const uint64_t seed = world_seed(args);
  const UnitResult plain = spec.run_unit(seed, /*traced=*/false);
  const UnitResult traced = spec.run_unit(seed, /*traced=*/true);
  bool correct = true;
  report_errors("untraced", plain, correct);
  report_errors("traced", traced, correct);
  if (!(traced.virt == plain.virt)) {
    std::fprintf(stderr, "CHECK FAILED: the traced unit's virtual outputs "
                         "(wall, ops, freezes, migrations) differ from the "
                         "untraced unit of the same seed\n");
    correct = false;
  }

  LayerValues values = traced.layer;
  for (const LayerValues& probe :
       {crypto_probe(), library_probe(seed), paper_reference_probe(seed)}) {
    values.insert(probe.begin(), probe.end());
  }
  std::vector<double> launches = plain.launch_us;
  launches.insert(launches.end(), traced.launch_us.begin(),
                  traced.launch_us.end());
  values["orchestrator.launch_host_us"] = median(launches);
  const VirtualSamples& v = plain.virt;
  values["migration.count"] = static_cast<double>(v.migration_s.size());
  values["migration.freeze_p50_ms"] = percentile(v.freeze_ms, 50);
  values["migration.freeze_p99_ms"] = percentile(v.freeze_ms, 99);
  values["migration.latency_p50_s"] = percentile(v.migration_s, 50);
  values["migration.latency_p99_s"] = percentile(v.migration_s, 99);
  values["client.write_ops"] = static_cast<double>(v.write_ms.size());
  values["client.read_ops"] = static_cast<double>(v.read_ms.size());
  values["trace.host_overhead_pct"] =
      plain.cpu_s > 0 ? (traced.cpu_s / plain.cpu_s - 1.0) * 100.0 : 0.0;
  for (const MetricDef& def : kPerLayer) {
    if (values.count(def.name) == 0) {
      std::fprintf(stderr, "CHECK FAILED: layer metric %s not collected\n",
                   def.name);
      correct = false;
      values[def.name] = 0.0;
    }
  }

  std::printf("%s seed=%llu traced: virtual wall %.9f s (untraced %.9f s), "
              "host cpu %.3f s traced vs %.3f s untraced\n",
              spec.name, static_cast<unsigned long long>(args.seed),
              traced.virt.wall_s, plain.virt.wall_s, traced.cpu_s,
              plain.cpu_s);
  std::printf("paper reference (Fig. 3, virtual time): increment overhead "
              "%.2f%% (paper 12.3%%), read overhead %.2f%% (paper: not "
              "significant); host-clock figures have no reference and are "
              "unvalidated\n",
              values["migration.lib.increment_overhead_pct"],
              values["migration.lib.read_overhead_pct"]);
  print_result(correct, plain.attempted + traced.attempted,
               plain.failed + traced.failed, kPerLayer, values);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace sgxmig::perfbench

int main(int argc, char** argv) {
  using namespace sgxmig::perfbench;
  const Args args = parse(argc, argv);
  for (const WorkloadSpec& spec : workloads()) {
    if (args.workload == spec.name) {
      return args.trace ? run_traced(spec, args) : run_untraced(spec, args);
    }
  }
  usage("unknown workload");
}
