// Shared types of the perfbench workload driver.
//
// A workload is a fixed, seed-determined UNIT of work (one fleet drain,
// or one client op stream) that the driver repeats until the requested
// run time is spent.  Every unit builds a fresh World from the same seed,
// so all units of one run must produce bit-identical virtual-time
// samples; the driver checks that, and takes host-clock figures as the
// median over units.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sgxmig::perfbench {

/// Per-layer figures of one unit (name -> value); units live in the
/// metric table of main.cpp.
using LayerValues = std::map<std::string, double>;

/// Virtual-time outputs of one unit.  Everything here is charged through
/// CostModel on the virtual clock, so it repeats exactly per seed.
struct VirtualSamples {
  double wall_s = 0.0;               // plan start -> last done, or stream
  std::vector<double> write_ms;      // counter increments + seals
  std::vector<double> read_ms;       // counter reads + unseals
  std::vector<double> freeze_ms;     // per successful migration
  std::vector<double> migration_s;   // per migration, admitted -> finished

  bool operator==(const VirtualSamples&) const = default;
};

struct UnitResult {
  double setup_s = 0.0;  // host seconds: world + launches + counters
  double cpu_s = 0.0;    // host CPU seconds of the measured phase
  VirtualSamples virt;
  uint64_t attempted = 0;  // migrations + client ops issued
  uint64_t failed = 0;     // of those, the ones that did not succeed
  /// Correctness violations (empty = every check passed).
  std::vector<std::string> errors;
  /// Host microseconds of each FleetRegistry::launch call during setup.
  std::vector<double> launch_us;
  /// Per-layer counters, filled only by a traced unit.
  LayerValues layer;
};

struct WorkloadSpec {
  const char* name;
  /// Runs one unit; `traced` turns on the world's observability bundle
  /// and fills UnitResult::layer.
  UnitResult (*run_unit)(uint64_t seed, bool traced);
  /// Builds (and tears down) the world without running the measured
  /// phase; returns its host seconds.  Used to take extra set-up samples
  /// when a run has room for few units.
  double (*setup_only)(uint64_t seed);
  /// Units a run measures at least, whatever --seconds says: a drain's
  /// host CPU is one long sample, and a median needs more than one.
  int min_units;
};

const std::vector<WorkloadSpec>& workloads();

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> values, double p);
double median(const std::vector<double>& values);
double mean(const std::vector<double>& values);

/// Host-clock probes run outside every timed phase (traced runs only):
/// crypto primitives, Migration Library ecalls, and the virtual-time
/// overhead of the library against the standard-SGX baseline enclave.
LayerValues crypto_probe();
LayerValues library_probe(uint64_t seed);
LayerValues paper_reference_probe(uint64_t seed);

}  // namespace sgxmig::perfbench
