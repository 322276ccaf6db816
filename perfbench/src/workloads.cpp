// The three perfbench workloads.  Each unit builds its world from the
// seed, times set-up on the host clock, runs the measured phase under a
// process-CPU stopwatch, and checks every output it can observe from
// outside the program.
//
//   evacuate-1k    10-region evacuation of r0: 100 machines, 1000
//                  enclaves with one counter each, full snapshot,
//                  pipelined + freeze-aware, hierarchical placement.
//   dense-precopy  4 source MEs x 250 enclaves with 8 counters each on 12
//                  machines, async pre-copy, live increments between
//                  rounds (RoundHook).
//   counter-churn  64 enclaves on one machine, no migrations: one client
//                  issues 40% increment / 40% read / 10% seal / 10%
//                  unseal.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "migration/migration_enclave.h"
#include "orchestrator/orchestrator.h"
#include "support/rng.h"
#include "support/sim_clock.h"

namespace sgxmig::perfbench {
namespace {

using orchestrator::FleetRegistry;
using orchestrator::LaunchOptions;
using orchestrator::Orchestrator;
using orchestrator::OrchestratorOptions;
using orchestrator::OrchestratorReport;
using orchestrator::Plan;
using orchestrator::Scheduler;

using HostClock = std::chrono::steady_clock;

double host_seconds_since(HostClock::time_point t0) {
  return std::chrono::duration<double>(HostClock::now() - t0).count();
}

double to_ms(Duration d) { return to_seconds(d) * 1e3; }

constexpr size_t kSealBytes = 256;

/// Counts what a Migration Enclave's queue-persist OCALL receives, then
/// performs the same versioned storage write durable_me_factory installs
/// (key "<address>.me-queue").
struct QueueTap {
  uint64_t commits = 0;
  uint64_t bytes = 0;
  uint64_t blob_max = 0;

  void wrap(platform::Machine& machine) {
    migration::MigrationEnclave* me = migration::me_on(machine);
    if (me == nullptr) return;
    const std::string key = machine.address() + ".me-queue";
    me->set_queue_persist_callback([this, &machine, key](ByteView blob) {
      ++commits;
      bytes += blob.size();
      blob_max = std::max<uint64_t>(blob_max, blob.size());
      machine.storage().put_versioned(key, blob);
    });
  }
};

/// What the client knows about one enclave: its counters' expected
/// values and one blob sealed before any migration.
struct EnclaveModel {
  uint64_t id = 0;
  std::vector<uint32_t> counters;
  std::vector<uint32_t> expected;
  Bytes sealed;
  Bytes plaintext;
};

/// A world plus the fleet registry over it (declared after the world, so
/// destroyed first).
struct Fleet {
  explicit Fleet(uint64_t seed)
      : world(std::make_unique<platform::World>(seed)),
        registry(std::make_unique<FleetRegistry>(*world)) {}

  std::unique_ptr<platform::World> world;
  std::unique_ptr<FleetRegistry> registry;
};

void check(UnitResult& out, bool ok, const std::string& what) {
  if (!ok && out.errors.size() < 16) out.errors.push_back(what);
}

/// Issues one client op, records its virtual latency in `sink`, and
/// counts it as attempted (and failed unless `ok(result)`).
template <typename Op>
auto client_op(platform::World& world, UnitResult& out,
               std::vector<double>& sink, Op&& op) {
  const Duration t0 = world.clock().now();
  auto result = op();
  sink.push_back(to_ms(world.clock().now() - t0));
  ++out.attempted;
  if (!result.ok()) ++out.failed;
  return result;
}

/// Launches `name` on `host` through the fleet registry, creates
/// `counters` migratable counters, applies a seeded number of increments
/// to each, and seals one blob.  Returns false on any failure.
bool launch_enclave(Fleet& fleet, Rng& rng, const std::string& host,
                    const std::string& name, const LaunchOptions& options,
                    int counters, uint32_t max_pre_increments,
                    EnclaveModel& model, UnitResult& out) {
  const auto image = sgx::EnclaveImage::create(name, 1, "perfbench");
  const auto t0 = HostClock::now();
  auto id = fleet.registry->launch(host, name, image, options);
  out.launch_us.push_back(host_seconds_since(t0) * 1e6);
  if (!id.ok()) return false;
  model.id = id.value();
  migration::MigratableEnclave* enclave = fleet.registry->enclave(model.id);
  for (int c = 0; c < counters; ++c) {
    auto created = enclave->ecall_create_migratable_counter();
    if (!created.ok()) return false;
    const uint32_t increments =
        static_cast<uint32_t>(rng.uniform(max_pre_increments + 1));
    for (uint32_t i = 0; i < increments; ++i) {
      if (!enclave->ecall_increment_migratable_counter(
                   created.value().counter_id)
               .ok()) {
        return false;
      }
    }
    model.counters.push_back(created.value().counter_id);
    model.expected.push_back(increments);
  }
  model.plaintext = rng.bytes(kSealBytes);
  auto sealed = enclave->ecall_seal_migratable_data(ByteView(),
                                                    model.plaintext);
  if (!sealed.ok()) return false;
  model.sealed = std::move(sealed).value();
  return true;
}

// ----- per-layer extraction (traced units) -----

double span_percentile_ms(const obs::TraceRecorder& trace,
                          const std::string& name, double p) {
  std::vector<double> durations;
  for (const obs::TraceSpan& span : trace.spans()) {
    if (span.name == name && !span.open) {
      durations.push_back(to_ms(span.end - span.start));
    }
  }
  return percentile(std::move(durations), p);
}

void collect_program_counters(platform::World& world, const QueueTap& tap,
                              LayerValues& layer) {
  const obs::MetricsRegistry& m = world.observability().metrics;
  const obs::TraceRecorder& trace = world.observability().trace;
  const auto counter = [&m](const char* name) {
    return static_cast<double>(m.counter(name));
  };
  for (const char* name :
       {"persist.commits", "persist.flush_fences", "pse.create",
        "pse.increment", "pse.read", "pse.destroy", "pse.retire",
        "pse.reclaimed", "me.handshake.full", "me.handshake.resumed",
        "me.fetches", "me.confirms", "net.rpcs", "net.posts",
        "net.delivered", "migration.precopy_rounds"}) {
    layer[name] = counter(name);
  }
  layer["persist.mutations_per_commit"] =
      m.histogram_mean("persist.batch_mutations");
  const double handshakes =
      layer["me.handshake.full"] + layer["me.handshake.resumed"];
  layer["me.handshake.resume_ratio"] =
      handshakes > 0 ? layer["me.handshake.resumed"] / handshakes : 0.0;
  double steps = 0;
  for (const obs::TraceInstant& instant : trace.instants()) {
    if (instant.name == "me.task.step") ++steps;
  }
  layer["me.task_steps"] = steps;
  layer["me.queue_commits"] = static_cast<double>(tap.commits);
  layer["me.queue_sealed_bytes"] = static_cast<double>(tap.bytes);
  layer["me.queue_blob_bytes_max"] = static_cast<double>(tap.blob_max);
  layer["net.post_bytes_total"] =
      static_cast<double>(world.network().bytes_sent());
  layer["net.drops"] = counter("net.rpc_drops.tamper") +
                       counter("net.rpc_drops.reply_lost") +
                       counter("net.drops.tamper") +
                       counter("net.drops.unreachable");
  layer["migration.transfer_bytes_mean"] =
      m.histogram_mean("migration.transfer_bytes");
  layer["span.restore_p50_ms"] = span_percentile_ms(trace, "restore", 50);
  layer["span.restore_p99_ms"] = span_percentile_ms(trace, "restore", 99);
  layer["span.precopy_round_p50_ms"] =
      span_percentile_ms(trace, "precopy_round", 50);
  layer["span.finalize_p99_ms"] = span_percentile_ms(trace, "finalize", 99);
  layer["span.enqueue_wait_p99_ms"] =
      span_percentile_ms(trace, "enqueue_wait", 99);
  layer["trace.spans"] = static_cast<double>(trace.spans().size());
  layer["trace.json_bytes"] =
      static_cast<double>(trace.to_chrome_json().size());
}

void collect_orchestrator(const Orchestrator& orch,
                          const Scheduler& scheduler,
                          const FleetRegistry& registry,
                          const OrchestratorReport& report,
                          LayerValues& layer) {
  const orchestrator::DriverStats& stats = orch.last_driver_stats();
  layer["orchestrator.waves"] = static_cast<double>(stats.waves);
  layer["orchestrator.task_touches"] = static_cast<double>(stats.task_touches);
  layer["orchestrator.admission_checks"] =
      static_cast<double>(stats.admission_checks);
  layer["orchestrator.pump_kicks"] = static_cast<double>(stats.pump_kicks);
  layer["orchestrator.retry_ratio"] =
      report.migrations.empty()
          ? 0.0
          : static_cast<double>(report.total_retries()) /
                static_cast<double>(report.migrations.size());
  layer["orchestrator.peak_inflight"] =
      static_cast<double>(report.peak_inflight_total);
  layer["orchestrator.control_plane_bytes"] = static_cast<double>(
      orch.control_plane_bytes() + scheduler.index_bytes() +
      registry.index_bytes());
  layer["orchestrator.enqueue_wait_p50_ms"] =
      report.enqueue_wait_percentile_seconds(50) * 1e3;
  layer["orchestrator.enqueue_wait_p99_ms"] =
      report.enqueue_wait_percentile_seconds(99) * 1e3;
}

// ----- fleet drains (evacuate-1k, dense-precopy) -----

struct DrainConfig {
  int machines = 0;
  /// Region of machine i; the plan evacuates `source_region`.
  std::string (*region_of)(int machine) = nullptr;
  uint32_t (*cores_of)(int machine) = nullptr;
  std::vector<int> source_machines;
  int enclaves = 0;
  int counters = 0;
  uint32_t max_pre_increments = 0;
  std::string source_region;
  bool precopy = false;
  bool hierarchical = false;
  OrchestratorOptions options;
  /// Counters the RoundHook increments after every shipped round.
  int live_increments_per_round = 0;
};

struct DrainWorld {
  QueueTap tap;  // outlives the MEs whose callbacks point at it
  std::unique_ptr<Fleet> fleet;
  std::vector<EnclaveModel> models;
};

bool build_drain_world(const DrainConfig& config, uint64_t seed,
                       DrainWorld& out, UnitResult& result) {
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  out.fleet = std::make_unique<Fleet>(seed);
  platform::World& world = *out.fleet->world;
  world.install_management_enclaves(
      migration::durable_me_factory(world.provider()));
  for (int i = 0; i < config.machines; ++i) {
    world.add_machine("m" + std::to_string(i), config.region_of(i),
                      config.cores_of(i));
  }
  for (platform::Machine* m : world.machines()) {
    if (auto* me = migration::me_on(*m)) {
      me->set_completed_history_limit(256);
      if (config.precopy) me->set_async_precopy(true);
    }
  }
  for (const int source : config.source_machines) {
    out.tap.wrap(*world.machine("m" + std::to_string(source)));
  }
  LaunchOptions launch;
  launch.live_transfer = config.precopy;
  out.models.resize(static_cast<size_t>(config.enclaves));
  const size_t sources = config.source_machines.size();
  for (int i = 0; i < config.enclaves; ++i) {
    const std::string host =
        "m" + std::to_string(config.source_machines[static_cast<size_t>(i) %
                                                    sources]);
    if (!launch_enclave(*out.fleet, rng, host,
                        "app-" + std::to_string(i), launch, config.counters,
                        config.max_pre_increments,
                        out.models[static_cast<size_t>(i)], result)) {
      return false;
    }
  }
  return true;
}

UnitResult run_drain(const DrainConfig& config, uint64_t seed, bool traced) {
  UnitResult result;
  DrainWorld dw;
  const auto setup_t0 = HostClock::now();
  const bool built = build_drain_world(config, seed, dw, result);
  result.setup_s = host_seconds_since(setup_t0);
  if (!built) {
    result.errors.push_back("set-up failed (launch, counter or seal)");
    return result;
  }
  platform::World& world = *dw.fleet->world;
  FleetRegistry& registry = *dw.fleet->registry;
  if (traced) world.observability().set_enabled(true);

  Scheduler scheduler(registry, config.hierarchical
                                    ? orchestrator::make_hierarchical_policy()
                                    : nullptr);
  OrchestratorOptions options = config.options;
  options.transfer_mode = config.precopy
                              ? orchestrator::TransferMode::kPrecopy
                              : orchestrator::TransferMode::kFullSnapshot;
  Orchestrator orch(registry, scheduler, options);

  std::map<uint64_t, EnclaveModel*> by_id;
  for (EnclaveModel& model : dw.models) by_id[model.id] = &model;
  Rng live_rng(seed ^ 0x5851f42d4c957f2dULL);
  if (config.live_increments_per_round > 0) {
    // Live writes land while the enclave is still serving between rounds.
    orch.set_round_hook([&](uint64_t enclave_id, uint32_t) {
      EnclaveModel* model = by_id.at(enclave_id);
      migration::MigratableEnclave* enclave = registry.enclave(enclave_id);
      const size_t first = live_rng.uniform(model->counters.size());
      for (int k = 0; k < config.live_increments_per_round; ++k) {
        const size_t c = (first + static_cast<size_t>(k)) %
                         model->counters.size();
        auto value = client_op(world, result, result.virt.write_ms, [&] {
          return enclave->ecall_increment_migratable_counter(
              model->counters[c]);
        });
        if (value.ok()) {
          ++model->expected[c];
          check(result, value.value() == model->expected[c],
                "live increment returned a wrong value");
        }
      }
    });
  }

  const double cpu0 = process_cpu_seconds();
  const OrchestratorReport report =
      orch.execute(Plan::evacuate(config.source_region));
  result.cpu_s = process_cpu_seconds() - cpu0;
  result.virt.wall_s = to_seconds(report.wall());

  // Every migration succeeded and ended off its source region.
  result.attempted += report.migrations.size();
  result.failed += report.failed();
  check(result, report.migrations.size() == dw.models.size(),
        "plan did not cover every enclave");
  for (const orchestrator::MigrationRecord& record : report.migrations) {
    check(result, record.success, "migration failed: " + record.name);
    const orchestrator::EnclaveRecord* placed = registry.find(record.enclave_id);
    check(result,
          placed != nullptr && placed->machine == record.destination &&
              placed->machine != record.source &&
              world.machine(placed->machine)->region() !=
                  config.source_region,
          "enclave not on its destination: " + record.name);
    if (!record.success) continue;
    result.virt.freeze_ms.push_back(to_ms(record.freeze_window));
    result.virt.migration_s.push_back(
        to_seconds(record.finished_at - record.admitted_at));
  }

  if (traced) {
    collect_program_counters(world, dw.tap, result.layer);
    collect_orchestrator(orch, scheduler, registry, report, result.layer);
    world.observability().set_enabled(false);
  }

  // The client, after the drain: counters hold their pre-migration values
  // plus every live increment, the pre-migration blob unseals, and the
  // moved enclave accepts new writes.  Without live increments the client
  // issues its own (two per enclave), so writes outnumber seals there too.
  for (EnclaveModel& model : dw.models) {
    migration::MigratableEnclave* enclave = registry.enclave(model.id);
    if (enclave == nullptr) {
      check(result, false, "enclave vanished");
      continue;
    }
    for (size_t c = 0; c < model.counters.size(); ++c) {
      auto value = client_op(world, result, result.virt.read_ms, [&] {
        return enclave->ecall_read_migratable_counter(model.counters[c]);
      });
      check(result, value.ok() && value.value() == model.expected[c],
            "counter lost its value across the migration");
    }
    auto unsealed = client_op(world, result, result.virt.read_ms, [&] {
      return enclave->ecall_unseal_migratable_data(model.sealed);
    });
    check(result,
          unsealed.ok() && unsealed.value().plaintext == model.plaintext,
          "pre-migration blob did not unseal after the migration");
    if (config.live_increments_per_round == 0) {
      for (int k = 0; k < 2; ++k) {
        auto value = client_op(world, result, result.virt.write_ms, [&] {
          return enclave->ecall_increment_migratable_counter(
              model.counters[0]);
        });
        check(result, value.ok() && value.value() == ++model.expected[0],
              "moved counter did not increment");
      }
      auto read_back = client_op(world, result, result.virt.read_ms, [&] {
        return enclave->ecall_read_migratable_counter(model.counters[0]);
      });
      check(result, read_back.ok() && read_back.value() == model.expected[0],
            "moved counter read back a wrong value");
    }
    const Bytes payload = Rng(model.id ^ seed).bytes(kSealBytes);
    auto sealed = client_op(world, result, result.virt.write_ms, [&] {
      return enclave->ecall_seal_migratable_data(ByteView(), payload);
    });
    check(result,
          sealed.ok() &&
              enclave->ecall_unseal_migratable_data(sealed.value()).ok(),
          "blob sealed on the destination did not unseal");
  }
  return result;
}

std::string evacuate_region(int machine) {
  return "r" + std::to_string(machine % 10);
}
uint32_t evacuate_cores(int machine) {
  return 16u + 16u * static_cast<uint32_t>(machine % 2);
}

const DrainConfig& evacuate_config() {
  static const DrainConfig config = [] {
    DrainConfig c;
    c.machines = 100;
    c.region_of = evacuate_region;
    c.cores_of = evacuate_cores;
    for (int i = 0; i < c.machines; i += 10) c.source_machines.push_back(i);
    c.enclaves = 1000;
    c.counters = 1;
    c.max_pre_increments = 3;
    c.source_region = "r0";
    c.hierarchical = true;
    c.options.max_inflight_per_machine = 4;
    c.options.max_inflight_total =
        4u * static_cast<uint32_t>(c.source_machines.size());
    c.options.max_inflight_per_destination = 4;
    c.options.max_attempts = 6;
    c.options.pipelined = true;
    c.options.freeze_aware = true;
    c.options.event_log_limit = 20000;
    return c;
  }();
  return config;
}

std::string dense_region(int machine) { return machine < 4 ? "src" : "dst"; }
uint32_t dense_cores(int) { return 16; }

const DrainConfig& dense_config() {
  static const DrainConfig config = [] {
    DrainConfig c;
    c.machines = 12;
    c.region_of = dense_region;
    c.cores_of = dense_cores;
    c.source_machines = {0, 1, 2, 3};
    c.enclaves = 1000;
    c.counters = 8;
    c.max_pre_increments = 1;
    c.source_region = "src";
    c.precopy = true;
    c.options.max_inflight_per_machine = 4;
    c.options.max_inflight_total = 16;
    c.options.max_inflight_per_destination = 4;
    c.options.max_attempts = 6;
    c.options.pipelined = true;
    c.options.event_log_limit = 20000;
    c.live_increments_per_round = 2;
    return c;
  }();
  return config;
}

UnitResult evacuate_unit(uint64_t seed, bool traced) {
  return run_drain(evacuate_config(), seed, traced);
}
UnitResult dense_unit(uint64_t seed, bool traced) {
  return run_drain(dense_config(), seed, traced);
}

double drain_setup_only(const DrainConfig& config, uint64_t seed) {
  UnitResult scratch;
  DrainWorld dw;
  const auto t0 = HostClock::now();
  build_drain_world(config, seed, dw, scratch);
  return host_seconds_since(t0);
}
double evacuate_setup(uint64_t seed) {
  return drain_setup_only(evacuate_config(), seed);
}
double dense_setup(uint64_t seed) {
  return drain_setup_only(dense_config(), seed);
}

// ----- counter-churn -----

constexpr int kChurnEnclaves = 64;
constexpr int kChurnCounters = 4;
constexpr int kChurnOps = 4000;

enum class ChurnOp : uint8_t { kIncrement, kRead, kSeal, kUnseal };

struct ChurnStep {
  ChurnOp op;
  uint32_t enclave;
  uint32_t slot;  // counter index, or blob index for unseal
};

struct ChurnWorld {
  std::unique_ptr<Fleet> fleet;
  std::vector<EnclaveModel> models;
  std::vector<ChurnStep> stream;
};

bool build_churn_world(uint64_t seed, ChurnWorld& out, UnitResult& result) {
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  out.fleet = std::make_unique<Fleet>(seed);
  platform::World& world = *out.fleet->world;
  world.add_machine("m0");
  out.models.resize(kChurnEnclaves);
  for (int i = 0; i < kChurnEnclaves; ++i) {
    if (!launch_enclave(*out.fleet, rng, "m0", "churn-" + std::to_string(i),
                        LaunchOptions{}, kChurnCounters, 2,
                        out.models[static_cast<size_t>(i)], result)) {
      return false;
    }
  }
  // Exactly 40/40/10/10 of kChurnOps in seeded order, so the mix (and
  // with it the stream's virtual wall) does not drift with the seed.
  out.stream.reserve(kChurnOps);
  for (int i = 0; i < kChurnOps; ++i) {
    const int tenth = i % 10;
    const ChurnOp op = tenth < 4   ? ChurnOp::kIncrement
                       : tenth < 8 ? ChurnOp::kRead
                       : tenth < 9 ? ChurnOp::kSeal
                                   : ChurnOp::kUnseal;
    out.stream.push_back(
        {op, static_cast<uint32_t>(rng.uniform(kChurnEnclaves)),
         rng.next_u32()});
  }
  for (size_t i = out.stream.size() - 1; i > 0; --i) {
    std::swap(out.stream[i], out.stream[rng.uniform(i + 1)]);
  }
  return true;
}

UnitResult churn_unit(uint64_t seed, bool traced) {
  UnitResult result;
  ChurnWorld cw;
  const auto setup_t0 = HostClock::now();
  const bool built = build_churn_world(seed, cw, result);
  result.setup_s = host_seconds_since(setup_t0);
  if (!built) {
    result.errors.push_back("set-up failed (launch, counter or seal)");
    return result;
  }
  platform::World& world = *cw.fleet->world;
  FleetRegistry& registry = *cw.fleet->registry;
  if (traced) world.observability().set_enabled(true);

  // Every blob an enclave sealed, with its plaintext, for later unseals.
  std::vector<std::vector<std::pair<Bytes, Bytes>>> blobs(kChurnEnclaves);
  for (size_t i = 0; i < cw.models.size(); ++i) {
    blobs[i].emplace_back(cw.models[i].sealed, cw.models[i].plaintext);
  }
  Rng payload_rng(seed ^ 0x5851f42d4c957f2dULL);

  const Duration v0 = world.clock().now();
  const double cpu0 = process_cpu_seconds();
  for (const ChurnStep& step : cw.stream) {
    EnclaveModel& model = cw.models[step.enclave];
    migration::MigratableEnclave* enclave = registry.enclave(model.id);
    const size_t c = step.slot % model.counters.size();
    switch (step.op) {
      case ChurnOp::kIncrement: {
        auto value = client_op(world, result, result.virt.write_ms, [&] {
          return enclave->ecall_increment_migratable_counter(
              model.counters[c]);
        });
        check(result, value.ok() && value.value() == ++model.expected[c],
              "increment returned a wrong value");
        break;
      }
      case ChurnOp::kRead: {
        auto value = client_op(world, result, result.virt.read_ms, [&] {
          return enclave->ecall_read_migratable_counter(model.counters[c]);
        });
        check(result, value.ok() && value.value() == model.expected[c],
              "read returned a wrong value");
        break;
      }
      case ChurnOp::kSeal: {
        Bytes plaintext = payload_rng.bytes(kSealBytes);
        auto sealed = client_op(world, result, result.virt.write_ms, [&] {
          return enclave->ecall_seal_migratable_data(ByteView(), plaintext);
        });
        if (sealed.ok()) {
          blobs[step.enclave].emplace_back(std::move(sealed).value(),
                                           std::move(plaintext));
        }
        break;
      }
      case ChurnOp::kUnseal: {
        const auto& [blob, plaintext] =
            blobs[step.enclave][step.slot % blobs[step.enclave].size()];
        auto unsealed = client_op(world, result, result.virt.read_ms, [&] {
          return enclave->ecall_unseal_migratable_data(blob);
        });
        check(result, unsealed.ok() && unsealed.value().plaintext == plaintext,
              "unseal did not return the sealed plaintext");
        break;
      }
    }
  }
  result.cpu_s = process_cpu_seconds() - cpu0;
  result.virt.wall_s = to_seconds(world.clock().now() - v0);

  if (traced) {
    collect_program_counters(world, QueueTap{}, result.layer);
    // counter-churn runs no orchestrator: its layer does no work here.
    for (const char* name :
         {"orchestrator.waves", "orchestrator.task_touches",
          "orchestrator.admission_checks", "orchestrator.pump_kicks",
          "orchestrator.retry_ratio", "orchestrator.peak_inflight",
          "orchestrator.control_plane_bytes",
          "orchestrator.enqueue_wait_p50_ms",
          "orchestrator.enqueue_wait_p99_ms"}) {
      result.layer[name] = 0.0;
    }
    world.observability().set_enabled(false);
  }
  // Every counter equals the increments issued to it.
  for (EnclaveModel& model : cw.models) {
    migration::MigratableEnclave* enclave = registry.enclave(model.id);
    for (size_t c = 0; c < model.counters.size(); ++c) {
      auto value = enclave->ecall_read_migratable_counter(model.counters[c]);
      check(result, value.ok() && value.value() == model.expected[c],
            "counter does not equal the increments issued to it");
    }
  }
  return result;
}

double churn_setup(uint64_t seed) {
  UnitResult scratch;
  ChurnWorld cw;
  const auto t0 = HostClock::now();
  build_churn_world(seed, cw, scratch);
  return host_seconds_since(t0);
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"evacuate-1k", evacuate_unit, evacuate_setup, 2},
      {"dense-precopy", dense_unit, dense_setup, 2},
      {"counter-churn", churn_unit, churn_setup, 1},
  };
  return specs;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index =
      static_cast<size_t>(std::clamp(rank, 1.0,
                                     static_cast<double>(values.size()))) -
      1;
  return values[index];
}

double median(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace sgxmig::perfbench
