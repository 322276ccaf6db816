// Golden reports for the orchestrator's wave driver.
//
// Replays five 32-enclave BENCH_fleet_drain configurations — pipelined
// full snapshot, pipelined pre-copy, the ME restart fault, and the
// blocking (non-pipelined, synchronous source ME) full snapshot and
// pre-copy drains — and renders each outcome as golden text: the virtual wall in ns, the
// DriverStats, and the OrchestratorReport JSON with its event log.
// test_event_driver and bench_fleet_scale both run every configuration
// once and compare the text byte for byte against the committed file
// tests/golden/fleet_drain_<config>.json.
//
// On a mismatch the actual text is written to
// <build dir>/fleet_drain_<config>.actual.json and both paths are
// printed, so a plain `diff` shows the drift.  README "Golden reports"
// says how to regenerate a golden after an intended change.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "migration/migration_enclave.h"
#include "orchestrator/orchestrator.h"
#include "support/json.h"

namespace sgxmig::golden {

enum class DrainConfig {
  kPipelined,
  kPrecopy,
  kMeRestart,
  kBlocking,
  kBlockingPrecopy
};

inline constexpr DrainConfig kDrainConfigs[] = {
    DrainConfig::kPipelined, DrainConfig::kPrecopy, DrainConfig::kMeRestart,
    DrainConfig::kBlocking, DrainConfig::kBlockingPrecopy};

inline const char* drain_config_name(DrainConfig config) {
  switch (config) {
    case DrainConfig::kPipelined: return "pipelined-full-snapshot";
    case DrainConfig::kPrecopy: return "pipelined-precopy";
    case DrainConfig::kMeRestart: return "me-restart";
    case DrainConfig::kBlocking: return "blocking-full-snapshot";
    case DrainConfig::kBlockingPrecopy: return "blocking-precopy";
  }
  return "?";
}

struct DrainRun {
  orchestrator::OrchestratorReport report;
  Duration wall{};
  orchestrator::DriverStats stats;
};

/// One 32-enclave drain of m0 over 5 machines, with the same world seed
/// formula, fleet and options as the matching bench_fleet_drain row.
inline DrainRun run_drain(DrainConfig config) {
  using orchestrator::TransferMode;
  const int enclaves = 32;
  const TransferMode mode = (config == DrainConfig::kPrecopy ||
                             config == DrainConfig::kBlockingPrecopy)
                                ? TransferMode::kPrecopy
                                : TransferMode::kFullSnapshot;
  // Blocking drains keep the source ME synchronous: migration_start and
  // pre-copy rounds/finalize reply only once the ME<->ME hop landed.
  const bool pipelined = config != DrainConfig::kBlocking &&
                         config != DrainConfig::kBlockingPrecopy;
  const int fault = config == DrainConfig::kMeRestart ? 2 : 0;
  platform::World world(9100 + enclaves + fault * 7 +
                        static_cast<int>(mode) * 31 + (pipelined ? 101 : 0));
  world.install_management_enclaves(
      migration::durable_me_factory(world.provider()));
  for (int i = 0; i < 5; ++i) world.add_machine("m" + std::to_string(i));
  if (pipelined && mode == TransferMode::kPrecopy) {
    for (platform::Machine* m : world.machines()) {
      if (auto* me = migration::me_on(*m)) me->set_async_precopy(true);
    }
  }

  orchestrator::FleetRegistry fleet(world);
  orchestrator::LaunchOptions launch;
  launch.live_transfer = mode == TransferMode::kPrecopy;
  for (int i = 0; i < enclaves; ++i) {
    const std::string name = "drain-app-" + std::to_string(i);
    const auto image = sgx::EnclaveImage::create(name, 1, "bench");
    const uint64_t id = fleet.launch("m0", name, image, launch).value();
    auto* enclave = fleet.enclave(id);
    const uint32_t counter =
        enclave->ecall_create_migratable_counter().value().counter_id;
    enclave->ecall_increment_migratable_counter(counter);
  }

  orchestrator::Scheduler scheduler(fleet);  // least-loaded
  orchestrator::OrchestratorOptions options;
  options.max_inflight_per_machine = 4;
  options.max_inflight_total = 8;
  options.max_attempts = 6;
  options.transfer_mode = mode;
  options.pipelined = pipelined;
  orchestrator::Orchestrator orch(fleet, scheduler, options);
  size_t completions = 0;
  if (config == DrainConfig::kMeRestart) {
    // The source ME dies mid-completion-wave and is revived three waves
    // later from its sealed durable queue.
    fleet.set_completion_callback(
        [&world, &completions](const orchestrator::EnclaveRecord&) {
          if (++completions == 2) {
            world.machine("m0")->kill_management_enclave();
          }
        });
    orch.set_wave_hook([&world, waves_down = 0u](uint32_t) mutable {
      if (world.machine("m0")->has_management_enclave()) return;
      if (++waves_down >= 3) world.machine("m0")->restart_management_enclave();
    });
  }

  DrainRun run;
  const Duration t0 = world.clock().now();
  run.report = orch.execute(orchestrator::Plan::drain("m0"));
  run.wall = world.clock().now() - t0;
  run.stats = orch.last_driver_stats();
  return run;
}

/// Golden text of one run: valid JSON with one migration or event per
/// line, so a diff points at the entry that drifted.
inline std::string golden_text(DrainConfig config, const DrainRun& run) {
  std::string out = "{\"config\": ";
  append_json_string(out, drain_config_name(config));
  out += ",\n\"wall_ns\": " + std::to_string(run.wall.count());
  out += ",\n\"driver_stats\": {\"waves\": " +
         std::to_string(run.stats.waves) +
         ", \"task_touches\": " + std::to_string(run.stats.task_touches) +
         ", \"admission_checks\": " +
         std::to_string(run.stats.admission_checks) +
         ", \"pump_kicks\": " + std::to_string(run.stats.pump_kicks) + "}";
  out += ",\n\"report\": ";
  // The report JSON holds no raw newlines (strings are escaped), so
  // breaking between array elements keeps the mapping one-to-one.
  const std::string report = run.report.to_json(/*include_events=*/true);
  for (size_t i = 0; i < report.size(); ++i) {
    if (report.compare(i, 4, "}, {") == 0) {
      out += "},\n{";
      i += 3;
    } else {
      out += report[i];
    }
  }
  out += "}\n";
  return out;
}

inline std::string golden_path(DrainConfig config) {
  return std::string(SGXMIG_GOLDEN_DIR) + "/fleet_drain_" +
         drain_config_name(config) + ".json";
}

inline std::string actual_path(DrainConfig config) {
  return std::string(SGXMIG_BUILD_DIR) + "/fleet_drain_" +
         drain_config_name(config) + ".actual.json";
}

/// True when `actual` equals the committed golden byte for byte.
/// Otherwise writes `actual` into the build directory and prints both
/// paths.
inline bool matches_golden(DrainConfig config, const std::string& actual) {
  const std::ifstream in(golden_path(config), std::ios::binary);
  std::ostringstream golden;
  golden << in.rdbuf();
  if (in && golden.str() == actual) return true;
  std::ofstream(actual_path(config), std::ios::binary) << actual;
  std::printf("golden mismatch for %s:\n  golden: %s\n  actual: %s\n",
              drain_config_name(config), golden_path(config).c_str(),
              actual_path(config).c_str());
  return false;
}

}  // namespace sgxmig::golden
