// Property-based tests (parameterized sweeps) on the security invariants
// that defeat the paper's §III roll-back and fork attacks:
//   1. effective counter values never decrease under any interleaving of
//      operations, restarts, replays, and migrations;
//   2. migratable seal/unseal round-trips across machines and sizes;
//   3. random tampering of protocol traffic never yields wrong data or an
//      inconsistent migration — only clean failures that can be retried;
//   4. serialization round-trips for randomized structure contents.
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "apps/kvstore.h"
#include "migration/migratable_enclave.h"
#include "migration/migration_enclave.h"
#include "platform/world.h"
#include "support/rng.h"

namespace sgxmig {
namespace {

using migration::InitState;
using migration::MigratableEnclave;
using migration::MigrationEnclave;
using platform::Machine;
using platform::World;
using sgx::EnclaveImage;

// ----------------------------------------------------------------------
// P1: counter monotonicity under random operation sequences
// ----------------------------------------------------------------------

class CounterMonotonicity : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CounterMonotonicity, EffectiveValuesNeverDecrease) {
  World world(GetParam());
  Machine* machines[2] = {&world.add_machine("m0"), &world.add_machine("m1")};
  MigrationEnclave me0(*machines[0], MigrationEnclave::standard_image(),
                       world.provider());
  MigrationEnclave me1(*machines[1], MigrationEnclave::standard_image(),
                       world.provider());
  const auto image = EnclaveImage::create("prop-app", 1, "prop");

  Rng rng(GetParam() ^ 0xfeed);
  int current = 0;  // index of the machine currently hosting the enclave

  auto fresh_instance = [&](Machine& m) {
    auto e = std::make_unique<MigratableEnclave>(m, image);
    e->set_persist_callback(
        [&m](ByteView s) { m.storage().put("ml", s); });
    return e;
  };
  auto enclave = fresh_instance(*machines[current]);
  ASSERT_EQ(enclave->ecall_migration_init(ByteView(), InitState::kNew,
                                          machines[current]->address()),
            Status::kOk);
  machines[current]->storage().put("ml", enclave->sealed_state());

  // Model: the expected effective value per live counter id.
  std::map<uint32_t, uint32_t> model;

  for (int step = 0; step < 120; ++step) {
    const uint64_t action = rng.uniform(100);
    if (action < 25) {
      // create
      if (model.size() < 8) {
        auto created = enclave->ecall_create_migratable_counter();
        ASSERT_TRUE(created.ok());
        EXPECT_EQ(created.value().value, 0u);
        model[created.value().counter_id] = 0;
      }
    } else if (action < 55 && !model.empty()) {
      // increment a random live counter
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.uniform(model.size())));
      auto value = enclave->ecall_increment_migratable_counter(it->first);
      ASSERT_TRUE(value.ok());
      EXPECT_EQ(value.value(), it->second + 1)
          << "counter " << it->first << " at step " << step;
      it->second = value.value();
    } else if (action < 75 && !model.empty()) {
      // read a random live counter and compare to the model
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.uniform(model.size())));
      auto value = enclave->ecall_read_migratable_counter(it->first);
      ASSERT_TRUE(value.ok());
      EXPECT_EQ(value.value(), it->second);
    } else if (action < 80 && !model.empty()) {
      // destroy a random counter
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.uniform(model.size())));
      ASSERT_EQ(enclave->ecall_destroy_migratable_counter(it->first),
                Status::kOk);
      EXPECT_EQ(enclave->ecall_read_migratable_counter(it->first).status(),
                Status::kCounterNotFound);
      model.erase(it);
    } else if (action < 90) {
      // restart from the latest persisted state
      enclave.reset();
      enclave = fresh_instance(*machines[current]);
      const Bytes state =
          machines[current]->storage().get("ml").value();
      ASSERT_EQ(enclave->ecall_migration_init(state, InitState::kRestore,
                                              machines[current]->address()),
                Status::kOk);
      // All model values must still be exactly observable.
      for (const auto& [id, expected] : model) {
        EXPECT_EQ(enclave->ecall_read_migratable_counter(id).value(), expected);
      }
    } else {
      // migrate to the other machine
      const int next = 1 - current;
      ASSERT_EQ(enclave->ecall_migration_start(machines[next]->address()),
                Status::kOk);
      enclave.reset();
      current = next;
      enclave = fresh_instance(*machines[current]);
      ASSERT_EQ(enclave->ecall_migration_init(ByteView(), InitState::kMigrate,
                                              machines[current]->address()),
                Status::kOk);
      for (const auto& [id, expected] : model) {
        EXPECT_EQ(enclave->ecall_read_migratable_counter(id).value(), expected)
            << "counter " << id << " after migration at step " << step;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CounterMonotonicity,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ----------------------------------------------------------------------
// P2: sealing round-trips across sizes and migrations
// ----------------------------------------------------------------------

class SealingRoundTrip : public ::testing::TestWithParam<size_t> {};

TEST_P(SealingRoundTrip, SurvivesMigrationForAllSizes) {
  World world(/*seed=*/GetParam() + 99);
  auto& m0 = world.add_machine("m0");
  auto& m1 = world.add_machine("m1");
  MigrationEnclave me0(m0, MigrationEnclave::standard_image(),
                       world.provider());
  MigrationEnclave me1(m1, MigrationEnclave::standard_image(),
                       world.provider());
  const auto image = EnclaveImage::create("seal-prop", 1, "prop");

  auto enclave = std::make_unique<MigratableEnclave>(m0, image);
  enclave->set_persist_callback(
      [&m0](ByteView s) { m0.storage().put("ml", s); });
  enclave->ecall_migration_init(ByteView(), InitState::kNew, "m0");

  Rng rng(GetParam());
  const size_t size = GetParam();
  const Bytes payload = rng.bytes(size);
  const Bytes aad = rng.bytes(size % 64);
  const Bytes blob =
      enclave->ecall_seal_migratable_data(aad, payload).value();

  // Unseals locally.
  auto local = enclave->ecall_unseal_migratable_data(blob);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(local.value().plaintext, payload);
  EXPECT_EQ(local.value().aad, aad);

  // Unseals after migration.
  ASSERT_EQ(enclave->ecall_migration_start("m1"), Status::kOk);
  enclave.reset();
  auto moved = std::make_unique<MigratableEnclave>(m1, image);
  moved->set_persist_callback(
      [&m1](ByteView s) { m1.storage().put("ml", s); });
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  auto remote = moved->ecall_unseal_migratable_data(blob);
  ASSERT_TRUE(remote.ok());
  EXPECT_EQ(remote.value().plaintext, payload);
  EXPECT_EQ(remote.value().aad, aad);

  // Any single-byte corruption is rejected.
  Bytes corrupted = blob;
  corrupted[rng.uniform(corrupted.size())] ^= 0x01;
  if (corrupted != blob) {
    EXPECT_FALSE(moved->ecall_unseal_migratable_data(corrupted).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SealingRoundTrip,
                         ::testing::Values(0, 1, 15, 16, 17, 255, 1024, 65536,
                                           1048576));

// ----------------------------------------------------------------------
// P3: random protocol tampering yields clean, retryable failures
// ----------------------------------------------------------------------

class ProtocolTampering : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProtocolTampering, TamperedMigrationsFailCleanAndRetry) {
  World world(GetParam() + 7000);
  auto& m0 = world.add_machine("m0");
  auto& m1 = world.add_machine("m1");
  MigrationEnclave me0(m0, MigrationEnclave::standard_image(),
                       world.provider());
  MigrationEnclave me1(m1, MigrationEnclave::standard_image(),
                       world.provider());
  const auto image = EnclaveImage::create("fuzz-app", 1, "prop");

  auto enclave = std::make_unique<MigratableEnclave>(m0, image);
  enclave->set_persist_callback(
      [&m0](ByteView s) { m0.storage().put("ml", s); });
  enclave->ecall_migration_init(ByteView(), InitState::kNew, "m0");
  const uint32_t id =
      enclave->ecall_create_migratable_counter().value().counter_id;
  for (int i = 0; i < 4; ++i) enclave->ecall_increment_migratable_counter(id);

  // Tamper with exactly one randomly chosen message to m1's ME, at a
  // randomly chosen byte.
  Rng rng(GetParam());
  const uint64_t target_message = rng.uniform(5);
  uint64_t seen = 0;
  world.network().set_tamper_hook(
      [&](const std::string& to, Bytes& request) {
        if (to != "m1/me") return true;
        if (seen++ == target_message && !request.empty()) {
          request[rng.uniform(request.size())] ^= 0x01;
        }
        return true;
      });

  const Status status = enclave->ecall_migration_start("m1");
  world.network().clear_tamper_hook();

  if (status == Status::kOk) {
    // Tampering hit a part the protocol doesn't depend on byte-for-byte
    // (e.g. it never reached the targeted message); migration completed.
  } else {
    // Clean failure: nothing pending at the destination from this broken
    // run, and a retry succeeds.
    EXPECT_EQ(enclave->ecall_migration_start("m1"), Status::kOk)
        << "first failure: " << status_name(status);
  }
  // Either way the enclave lands on m1 with the counter intact.
  enclave.reset();
  auto moved = std::make_unique<MigratableEnclave>(m1, image);
  moved->set_persist_callback(
      [&m1](ByteView s) { m1.storage().put("ml", s); });
  ASSERT_EQ(moved->ecall_migration_init(ByteView(), InitState::kMigrate, "m1"),
            Status::kOk);
  EXPECT_EQ(moved->ecall_read_migratable_counter(id).value(), 4u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolTampering,
                         ::testing::Range<uint64_t>(0, 12));

// ----------------------------------------------------------------------
// P4: serialization round-trips with randomized contents
// ----------------------------------------------------------------------

class SerdeRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerdeRoundTrip, MigrationDataRandomContents) {
  Rng rng(GetParam());
  migration::MigrationData data;
  for (size_t i = 0; i < migration::kMaxCounters; ++i) {
    data.counters_active[i] = rng.uniform(2) == 1;
    data.counter_values[i] = rng.next_u32();
  }
  rng.fill(data.msk.data(), data.msk.size());
  auto back = migration::MigrationData::deserialize(data.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), data);
}

TEST_P(SerdeRoundTrip, LibraryStateRandomContents) {
  Rng rng(GetParam() ^ 0x11);
  migration::LibraryState state;
  state.frozen = static_cast<uint8_t>(rng.uniform(2));
  for (size_t i = 0; i < migration::kMaxCounters; ++i) {
    state.counters_active[i] = rng.uniform(2) == 1;
    state.counter_uuids[i].counter_id = rng.next_u32();
    rng.fill(state.counter_uuids[i].nonce.data(), 12);
    state.counter_offsets[i] = rng.next_u32();
  }
  rng.fill(state.msk.data(), state.msk.size());
  auto back = migration::LibraryState::deserialize(state.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().frozen, state.frozen);
  EXPECT_EQ(back.value().counter_offsets, state.counter_offsets);
  EXPECT_EQ(back.value().counter_uuids[7], state.counter_uuids[7]);
  EXPECT_EQ(back.value().msk, state.msk);
}

TEST_P(SerdeRoundTrip, TruncationAlwaysRejected) {
  Rng rng(GetParam() ^ 0x22);
  migration::MigrationData data;
  data.counters_active[3] = true;
  data.counter_values[3] = 42;
  Bytes bytes = data.serialize();
  const size_t cut = rng.uniform(bytes.size() - 1) + 1;
  bytes.resize(bytes.size() - cut);
  EXPECT_FALSE(migration::MigrationData::deserialize(bytes).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerdeRoundTrip,
                         ::testing::Values(10, 20, 30, 40, 50, 60));

// ----------------------------------------------------------------------
// P5: KV store vs. in-memory model under random ops + persist/restore
// ----------------------------------------------------------------------

class KvStoreModel : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KvStoreModel, MatchesModelThroughPersistRestartMigrate) {
  World world(GetParam() + 500);
  auto& m0 = world.add_machine("m0");
  auto& m1 = world.add_machine("m1");
  MigrationEnclave me0(m0, MigrationEnclave::standard_image(),
                       world.provider());
  MigrationEnclave me1(m1, MigrationEnclave::standard_image(),
                       world.provider());
  const auto image = EnclaveImage::create("kv-prop", 1, "prop");
  Machine* machines[2] = {&m0, &m1};
  int current = 0;

  auto fresh = [&](Machine& m) {
    auto e = std::make_unique<apps::KvStoreEnclave>(m, image);
    e->set_persist_callback([&m](ByteView s) { m.storage().put("ml", s); });
    return e;
  };
  auto kv = fresh(m0);
  kv->ecall_migration_init(ByteView(), InitState::kNew, "m0");
  kv->ecall_setup();

  std::map<std::string, Bytes> model;
  Bytes last_snapshot;
  Rng rng(GetParam());

  for (int step = 0; step < 80; ++step) {
    const uint64_t action = rng.uniform(100);
    const std::string key = "k" + std::to_string(rng.uniform(10));
    if (action < 40) {
      const Bytes value = rng.bytes(1 + rng.uniform(64));
      ASSERT_EQ(kv->ecall_put(key, value), Status::kOk);
      model[key] = value;
    } else if (action < 60) {
      auto got = kv->ecall_get(key);
      if (model.count(key)) {
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got.value(), model[key]);
      } else {
        EXPECT_EQ(got.status(), Status::kStorageMissing);
      }
    } else if (action < 70) {
      const Status erased = kv->ecall_erase(key);
      EXPECT_EQ(erased == Status::kOk, model.erase(key) != 0);
    } else if (action < 85) {
      // persist + restart: the latest snapshot restores; the model is
      // whatever was persisted.
      last_snapshot = kv->ecall_persist().value();
      kv.reset();
      kv = fresh(*machines[current]);
      ASSERT_EQ(kv->ecall_migration_init(
                    machines[current]->storage().get("ml").value(),
                    InitState::kRestore, machines[current]->address()),
                Status::kOk);
      ASSERT_EQ(kv->ecall_restore(last_snapshot), Status::kOk);
      EXPECT_EQ(kv->ecall_size().value(), model.size());
    } else {
      // migrate with state
      last_snapshot = kv->ecall_persist().value();
      const int next = 1 - current;
      ASSERT_EQ(kv->ecall_migration_start(machines[next]->address()),
                Status::kOk);
      kv.reset();
      current = next;
      kv = fresh(*machines[current]);
      ASSERT_EQ(kv->ecall_migration_init(ByteView(), InitState::kMigrate,
                                         machines[current]->address()),
                Status::kOk);
      ASSERT_EQ(kv->ecall_restore(last_snapshot), Status::kOk);
      EXPECT_EQ(kv->ecall_size().value(), model.size());
    }
  }
  // Final audit: every model entry is present and equal.
  for (const auto& [key, value] : model) {
    auto got = kv->ecall_get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(got.value(), value) << key;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvStoreModel,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

}  // namespace
}  // namespace sgxmig
