// Ablation: the §VI-B counter-migration design choice (README "Paper map").
//
//   "One approach to migrate a counter is ... have the latter create a
//    new counter and increment it until the counter value reaches the
//    transferred value.  However, this will incur significant performance
//    overhead because monotonic counter operations are usually
//    rate-limited.  Instead, our implementation uses a counter offset ...
//    the processing time of a counter during migration is constant,
//    regardless of the counter value."
//
// Measures destination-side counter re-creation time for both designs at
// counter values 1..10000: the offset scheme is constant, the naive
// scheme linear (~0.16 s per increment of hardware-counter latency).
#include <cstdio>

#include "baseline/naive_counter_migration.h"
#include "baseline/nonmigratable.h"
#include "migration/migratable_enclave.h"
#include "migration/migration_enclave.h"
#include "platform/world.h"

namespace sgxmig {
namespace {

using migration::InitState;
using migration::MigratableEnclave;
using migration::MigrationEnclave;

/// Offset scheme: full migration of an enclave whose counter has
/// effective value `value` (achieved by chaining migrations so the offset
/// accumulates without incrementing `value` times).
double offset_scheme_seconds(uint32_t value) {
  platform::World world(/*seed=*/value * 7 + 1);
  auto& m0 = world.add_machine("m0");
  auto& m1 = world.add_machine("m1");
  MigrationEnclave me0(m0, MigrationEnclave::standard_image(),
                       world.provider());
  MigrationEnclave me1(m1, MigrationEnclave::standard_image(),
                       world.provider());
  const auto image = sgx::EnclaveImage::create("ablate", 1, "bench");

  auto enclave = std::make_unique<MigratableEnclave>(m0, image);
  enclave->set_persist_callback(
      [&m0](ByteView s) { m0.storage().put("ml", s); });
  enclave->ecall_migration_init(ByteView(), InitState::kNew, "m0");
  const uint32_t id =
      enclave->ecall_create_migratable_counter().value().counter_id;
  // Bring the counter to `value` cheaply FOR THE HARNESS by incrementing;
  // this is setup, not the measured phase.
  for (uint32_t i = 0; i < value; ++i) {
    enclave->ecall_increment_migratable_counter(id);
  }

  // Measured phase: migrate the counter to m1 (source collection +
  // destination re-creation with offset).
  const Duration t0 = world.clock().now();
  enclave->ecall_migration_start("m1");
  enclave.reset();
  auto moved = std::make_unique<MigratableEnclave>(m1, image);
  moved->set_persist_callback(
      [&m1](ByteView s) { m1.storage().put("ml", s); });
  moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1");
  const double elapsed = to_seconds(world.clock().now() - t0);
  // Sanity: the value survived.
  if (moved->ecall_read_migratable_counter(id).value() != value) {
    std::fprintf(stderr, "BUG: value lost in migration\n");
  }
  return elapsed;
}

/// Naive scheme: destination re-creates the counter by incrementing a
/// fresh hardware counter `value` times.
double naive_scheme_seconds(uint32_t value) {
  platform::World world(/*seed=*/value * 13 + 5);
  auto& m1 = world.add_machine("m1");
  const auto image = sgx::EnclaveImage::create("ablate", 1, "bench");
  baseline::BaselineEnclave destination(m1, image);
  const Duration t0 = world.clock().now();
  auto uuid = baseline::naive_migrate_counter(destination, value);
  const double elapsed = to_seconds(world.clock().now() - t0);
  if (!uuid.ok() ||
      destination.ecall_read_counter(uuid.value()).value() != value) {
    std::fprintf(stderr, "BUG: naive migration broken\n");
  }
  return elapsed;
}

void run() {
  std::printf("\n================================================================\n");
  std::printf("Ablation A1 — counter offset vs. increment-until-value (§VI-B)\n");
  std::printf("destination-side counter re-creation time by counter value\n");
  std::printf("================================================================\n");
  std::printf("%12s %22s %22s %10s\n", "counter value", "offset scheme [s]",
              "naive scheme [s]", "speedup");

  for (const uint32_t value : {1u, 10u, 100u, 1000u, 10000u}) {
    const double offset_s = offset_scheme_seconds(value);
    const double naive_s = naive_scheme_seconds(value);
    std::printf("%12u %22.3f %22.1f %9.0fx\n", value, offset_s, naive_s,
                naive_s / offset_s);
  }
  std::printf(
      "\nexpected shape: offset scheme constant (~1 s incl. protocol);\n"
      "naive scheme linear at ~0.16 s per hardware increment — unusable\n"
      "beyond small values (10000 increments ~ 27 minutes).\n");
}

}  // namespace
}  // namespace sgxmig

int main() {
  sgxmig::run();
  return 0;
}
