// Supporting microbenchmarks: REAL-time throughput of
// the from-scratch crypto primitives, measured with google-benchmark.
// These numbers ground the cost-model constants (e.g. aes_gcm_ns_per_byte)
// and document what the simulation's crypto actually costs on the host.
#include <benchmark/benchmark.h>

#include "crypto/aes.h"
#include "crypto/cmac.h"
#include "crypto/ed25519.h"
#include "crypto/gcm.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "crypto/sha512.h"
#include "crypto/x25519.h"

namespace sgxmig::crypto {
namespace {

void BM_Sha256(benchmark::State& state) {
  const Bytes data(static_cast<size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_Sha512(benchmark::State& state) {
  const Bytes data(static_cast<size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha512::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha512)->Arg(1024)->Arg(65536);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key(32, 0x11);
  const Bytes data(1024, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha256(key, data));
  }
  state.SetBytesProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_HmacSha256);

void BM_AesBlock(benchmark::State& state) {
  const Bytes key(16, 0x22);
  const Aes aes(key);
  uint8_t block[16] = {0};
  for (auto _ : state) {
    aes.encrypt_block(block, block);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_AesBlock);

void BM_GcmSeal(benchmark::State& state) {
  const Bytes key(16, 0x33);
  const Bytes iv(12, 0x44);
  const Bytes data(static_cast<size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcm_encrypt(key, iv, ByteView(), data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GcmSeal)->Arg(100)->Arg(4096)->Arg(100000);

void BM_GcmOpen(benchmark::State& state) {
  const Bytes key(16, 0x33);
  const Bytes iv(12, 0x44);
  const Bytes data(static_cast<size_t>(state.range(0)), 0xab);
  const GcmCiphertext ct = gcm_encrypt(key, iv, ByteView(), data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcm_decrypt(key, iv, ByteView(), ct.ciphertext,
                                         ByteView(ct.tag.data(), 16)));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GcmOpen)->Arg(4096);

void BM_AesCmac(benchmark::State& state) {
  const Bytes key(16, 0x55);
  const Bytes data(512, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aes_cmac(key, data));
  }
  state.SetBytesProcessed(state.iterations() * 512);
}
BENCHMARK(BM_AesCmac);

void BM_X25519(benchmark::State& state) {
  X25519Key scalar{};
  scalar[0] = 0x42;
  X25519Key point{};
  point[0] = 9;
  for (auto _ : state) {
    point = x25519(scalar, point);
    benchmark::DoNotOptimize(point);
  }
}
BENCHMARK(BM_X25519);

void BM_Ed25519Sign(benchmark::State& state) {
  const auto kp = Ed25519KeyPair::from_seed(to_array<32>(Bytes(32, 0x66)));
  const Bytes msg(256, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.sign(msg));
  }
}
BENCHMARK(BM_Ed25519Sign);

void BM_Ed25519Verify(benchmark::State& state) {
  const auto kp = Ed25519KeyPair::from_seed(to_array<32>(Bytes(32, 0x66)));
  const Bytes msg(256, 0xab);
  const auto sig = kp.sign(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ed25519_verify(kp.public_key(), msg, sig));
  }
}
BENCHMARK(BM_Ed25519Verify);

}  // namespace
}  // namespace sgxmig::crypto

BENCHMARK_MAIN();
