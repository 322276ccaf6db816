// Host-clock probes of single layers, run outside every timed phase of a
// traced run: crypto primitives through their public functions,
// Migration Library ecalls on a one-enclave world, and the library's
// virtual-time overhead against the standard-SGX baseline enclave (the
// paper's Fig. 3 reference).
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "baseline/nonmigratable.h"
#include "crypto/aes.h"
#include "crypto/ed25519.h"
#include "crypto/gcm.h"
#include "crypto/sha256.h"
#include "crypto/x25519.h"
#include "harness.h"
#include "migration/migratable_enclave.h"
#include "platform/world.h"
#include "support/rng.h"

namespace sgxmig::perfbench {
namespace {

using HostClock = std::chrono::steady_clock;

/// Median over `batches` of the mean host time of one `op` call, in
/// `scale` units per second (1e9 = ns, 1e6 = us).
template <typename Op>
double per_call(int batches, int calls, double scale, Op&& op) {
  std::vector<double> samples;
  for (int b = 0; b < batches; ++b) {
    const auto t0 = HostClock::now();
    for (int i = 0; i < calls; ++i) op();
    const double s = std::chrono::duration<double>(HostClock::now() - t0).count();
    samples.push_back(s / calls * scale);
  }
  return median(samples);
}

/// Folds bytes into a sink the optimizer cannot drop.
volatile uint8_t g_sink = 0;
void consume(const uint8_t* data, size_t len) {
  uint8_t x = 0;
  for (size_t i = 0; i < len; ++i) x ^= data[i];
  g_sink = static_cast<uint8_t>(g_sink ^ x);
}

}  // namespace

LayerValues crypto_probe() {
  LayerValues out;
  Rng rng(7);
  const Bytes key = rng.bytes(16);
  const Bytes iv = rng.bytes(crypto::kGcmIvSize);
  const Bytes page = rng.bytes(4096);

  crypto::Aes aes(key);
  uint8_t block[16] = {};
  out["crypto.aes_block_ns"] = per_call(5, 20000, 1e9, [&] {
    aes.encrypt_block(block, block);
  });
  consume(block, sizeof block);

  Bytes expand_key = key;
  out["crypto.aes_key_expand_ns"] = per_call(5, 5000, 1e9, [&] {
    ++expand_key[0];
    crypto::Aes fresh(expand_key);
    fresh.encrypt_block(block, block);
  });
  consume(block, sizeof block);

  crypto::GcmCiphertext sealed;
  out["crypto.gcm_seal_4k_us"] = per_call(5, 20, 1e6, [&] {
    sealed = crypto::gcm_encrypt(key, iv, ByteView(), page);
  });
  out["crypto.gcm_open_4k_us"] = per_call(5, 20, 1e6, [&] {
    auto opened = crypto::gcm_decrypt(key, iv, ByteView(), sealed.ciphertext,
                                      sealed.tag);
    consume(opened.value().data(), 1);
  });

  crypto::X25519Key scalar{};
  crypto::X25519Key point = crypto::x25519_base(scalar);
  scalar[0] = 0x48;
  out["crypto.x25519_us"] = per_call(5, 20, 1e6, [&] {
    point = crypto::x25519(scalar, point);
  });
  consume(point.data(), point.size());

  const auto signer = crypto::Ed25519KeyPair::from_seed(crypto::Ed25519Seed{});
  const crypto::Ed25519Signature signature = signer.sign(page);
  bool verified = true;
  out["crypto.ed25519_verify_us"] = per_call(5, 10, 1e6, [&] {
    verified = verified &&
               crypto::ed25519_verify(signer.public_key(), page, signature);
  });
  if (!verified) out["crypto.ed25519_verify_us"] = -1.0;

  crypto::Sha256Digest digest{};
  out["crypto.sha256_4k_us"] = per_call(5, 100, 1e6, [&] {
    digest = crypto::Sha256::hash(page);
  });
  consume(digest.data(), digest.size());
  return out;
}

LayerValues library_probe(uint64_t seed) {
  platform::World world(seed);
  platform::Machine& machine = world.add_machine("m0");
  const auto image = sgx::EnclaveImage::create("probe-app", 1, "perfbench");
  migration::MigratableEnclave enclave(machine, image);
  enclave.set_persist_callback([&machine](ByteView state) {
    machine.storage().put("probe.ml", state);
  });
  enclave.ecall_migration_init(ByteView(), migration::InitState::kNew,
                               machine.address());
  const uint32_t counter =
      enclave.ecall_create_migratable_counter().value().counter_id;
  Rng rng(seed);
  const Bytes plaintext = rng.bytes(256);
  Bytes blob;

  LayerValues out;
  out["migration.lib.increment_host_us"] = per_call(5, 40, 1e6, [&] {
    enclave.ecall_increment_migratable_counter(counter);
  });
  out["migration.lib.read_host_us"] = per_call(5, 40, 1e6, [&] {
    enclave.ecall_read_migratable_counter(counter);
  });
  out["migration.lib.seal_host_us"] = per_call(5, 40, 1e6, [&] {
    blob = enclave.ecall_seal_migratable_data(ByteView(), plaintext).value();
  });
  out["migration.lib.unseal_host_us"] = per_call(5, 40, 1e6, [&] {
    enclave.ecall_unseal_migratable_data(blob);
  });
  // Each create is timed alone and followed by a destroy, so the library
  // state (and its persisted size) is the same for every sample.
  std::vector<double> create_us;
  for (int i = 0; i < 100; ++i) {
    const auto t0 = HostClock::now();
    const uint32_t id =
        enclave.ecall_create_migratable_counter().value().counter_id;
    create_us.push_back(
        std::chrono::duration<double>(HostClock::now() - t0).count() * 1e6);
    enclave.ecall_destroy_migratable_counter(id);
  }
  out["migration.lib.counter_create_host_us"] = median(create_us);
  return out;
}

LayerValues paper_reference_probe(uint64_t seed) {
  // Fig. 3 set-up: one library enclave and one baseline enclave on the
  // same machine, fed the same seeded increment/read stream.
  platform::World world(seed);
  platform::Machine& machine = world.add_machine("m0");
  const auto image = sgx::EnclaveImage::create("reference-app", 1, "perfbench");
  migration::MigratableEnclave lib(machine, image);
  lib.set_persist_callback([&machine](ByteView state) {
    machine.storage().put("reference.ml", state);
  });
  lib.ecall_migration_init(ByteView(), migration::InitState::kNew,
                           machine.address());
  baseline::BaselineEnclave base(machine, image);
  const uint32_t lib_counter =
      lib.ecall_create_migratable_counter().value().counter_id;
  const sgx::CounterUuid base_counter =
      base.ecall_create_counter().value().uuid;

  std::vector<double> lib_inc, base_inc, lib_read, base_read;
  Rng rng(seed ^ 0x2545f4914f6cdd1dULL);
  const auto& clock = world.clock();
  const auto timed = [&clock](std::vector<double>& sink, auto&& op) {
    const Duration t0 = clock.now();
    op();
    sink.push_back(to_seconds(clock.now() - t0));
  };
  for (int i = 0; i < 1000; ++i) {
    if (rng.uniform(2) == 0) {
      timed(lib_inc, [&] { lib.ecall_increment_migratable_counter(lib_counter); });
      timed(base_inc, [&] { base.ecall_increment_counter(base_counter); });
    } else {
      timed(lib_read, [&] { lib.ecall_read_migratable_counter(lib_counter); });
      timed(base_read, [&] { base.ecall_read_counter(base_counter); });
    }
  }
  LayerValues out;
  out["migration.lib.increment_overhead_pct"] =
      (mean(lib_inc) / mean(base_inc) - 1.0) * 100.0;
  out["migration.lib.read_overhead_pct"] =
      (mean(lib_read) / mean(base_read) - 1.0) * 100.0;
  return out;
}

}  // namespace sgxmig::perfbench
