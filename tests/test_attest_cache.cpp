// Cached ME<->ME attestation sessions: after one full mutual-RA handshake
// the source ME holds a (peer address, instance epoch)-keyed master key
// and later transfers to the same destination resume in ONE round trip.
// Every downgrade path must land on a full re-handshake — destination ME
// restart (acceptors are memory-only), an explicit instance-epoch bump
// (re-deployment without a restart), and a tampered resume message — and
// NONE of them may weaken the migration guarantees: the source still
// freezes, replayed pre-migration state still finds its counters gone,
// and the payload is still delivered exactly once.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "migration/migratable_enclave.h"
#include "migration/migration_enclave.h"
#include "platform/world.h"

namespace sgxmig {
namespace {

using migration::InitState;
using migration::MeMsgType;
using migration::MeRequest;
using migration::MigratableEnclave;
using migration::MigrationEnclave;
using platform::Machine;
using platform::World;
using sgx::EnclaveImage;

constexpr const char* kStateBlob = "app-state";

class AttestCacheTest : public ::testing::Test {
 protected:
  AttestCacheTest() {
    world_.install_management_enclaves(
        migration::durable_me_factory(world_.provider()));
  }

  Machine& machine(const std::string& address) {
    return *world_.machine(address);
  }
  MigrationEnclave* me(const std::string& address) {
    return migration::me_on(machine(address));
  }
  void restart_me(const std::string& address) {
    machine(address).kill_management_enclave();
    ASSERT_TRUE(machine(address).restart_management_enclave());
  }

  std::unique_ptr<MigratableEnclave> make_app(
      Machine& m, std::shared_ptr<const EnclaveImage> image) {
    auto enclave = std::make_unique<MigratableEnclave>(m, image);
    enclave->set_persist_callback(
        [&m](ByteView state) { m.storage().put(kStateBlob, state); });
    return enclave;
  }
  std::unique_ptr<MigratableEnclave> start_new(
      Machine& m, std::shared_ptr<const EnclaveImage> image) {
    auto enclave = make_app(m, image);
    EXPECT_EQ(enclave->ecall_migration_init(ByteView(), InitState::kNew,
                                            m.address()),
              Status::kOk);
    m.storage().put(kStateBlob, enclave->sealed_state());
    return enclave;
  }
  /// Full migration src -> dst (source object destroyed, destination
  /// inits as kMigrate and pulls the pending data from its ME).
  Status migrate(std::unique_ptr<MigratableEnclave>& enclave, Machine& src,
                 Machine& dst, std::shared_ptr<const EnclaveImage> image) {
    const Status start = enclave->ecall_migration_start(dst.address());
    if (start != Status::kOk) return start;
    // The blocking start ran the TransferTask step machine to retention.
    EXPECT_EQ(me(src.address())->transfer_task_count(), 0u);
    EXPECT_EQ(world_.network().pending_events(), 0u);
    enclave.reset();
    enclave = make_app(dst, image);
    return enclave->ecall_migration_init(ByteView(), InitState::kMigrate,
                                         dst.address());
  }

  World world_{/*seed=*/90210};
  Machine& m0_ = world_.add_machine("m0", "eu-central");
  Machine& m1_ = world_.add_machine("m1", "eu-central");
  std::shared_ptr<const EnclaveImage> image_a_ =
      EnclaveImage::create("cache-app-a", 1, "acme");
  std::shared_ptr<const EnclaveImage> image_b_ =
      EnclaveImage::create("cache-app-b", 1, "acme");
};

TEST_F(AttestCacheTest, SecondTransferResumesInsteadOfRehandshaking) {
  auto a = start_new(m0_, image_a_);
  ASSERT_EQ(migrate(a, m0_, m1_, image_a_), Status::kOk);
  EXPECT_EQ(me("m0")->full_handshake_count(), 1u);
  EXPECT_EQ(me("m0")->resumed_handshake_count(), 0u);
  EXPECT_EQ(me("m0")->peer_session_count(), 1u);

  // A second enclave migrating along the same ME pair rides the cache.
  auto b = start_new(m0_, image_b_);
  ASSERT_EQ(migrate(b, m0_, m1_, image_b_), Status::kOk);
  EXPECT_EQ(me("m0")->full_handshake_count(), 1u);
  EXPECT_EQ(me("m0")->resumed_handshake_count(), 1u);
  EXPECT_EQ(me("m0")->peer_session_count(), 1u);  // re-keyed, not duplicated
}

TEST_F(AttestCacheTest, ResumedTransferStillPreventsForks) {
  // Warm the cache, then run the fork-prevention drill over a RESUMED
  // session: the one-round-trip handshake must not soften §VII-A.
  auto warm = start_new(m0_, image_b_);
  ASSERT_EQ(migrate(warm, m0_, m1_, image_b_), Status::kOk);

  auto a = start_new(m0_, image_a_);
  const uint32_t id =
      a->ecall_create_migratable_counter().value().counter_id;
  for (int i = 0; i < 3; ++i) a->ecall_increment_migratable_counter(id);
  const auto pre_migration_disk = m0_.storage().snapshot();

  ASSERT_EQ(migrate(a, m0_, m1_, image_a_), Status::kOk);
  EXPECT_GE(me("m0")->resumed_handshake_count(), 1u);

  // Exactly-once: the destination continues the counter from its
  // effective value — and the delivered data cannot be fetched twice.
  EXPECT_EQ(a->ecall_read_migratable_counter(id).value(), 3u);
  auto second = make_app(m1_, image_a_);
  EXPECT_NE(second->ecall_migration_init(ByteView(), InitState::kMigrate,
                                         m1_.address()),
            Status::kOk);

  // Zero forks: the replayed pre-migration disk finds its counters gone.
  m0_.storage().restore(pre_migration_disk);
  auto fork = make_app(m0_, image_a_);
  const Bytes state = m0_.storage().get(kStateBlob).value();
  ASSERT_EQ(fork->ecall_migration_init(state, InitState::kRestore, "m0"),
            Status::kOk);
  EXPECT_EQ(fork->ecall_increment_migratable_counter(id).status(),
            Status::kCounterNotFound);
}

TEST_F(AttestCacheTest, DestinationRestartForcesFullRehandshake) {
  auto a = start_new(m0_, image_a_);
  ASSERT_EQ(migrate(a, m0_, m1_, image_a_), Status::kOk);
  ASSERT_EQ(me("m0")->peer_session_count(), 1u);

  // The restarted ME draws a fresh instance epoch and forgets its
  // (memory-only) resume acceptors: it cannot prove it never forked the
  // old session's state, so the resume is refused.
  restart_me("m1");

  auto b = start_new(m0_, image_b_);
  ASSERT_EQ(migrate(b, m0_, m1_, image_b_), Status::kOk);
  EXPECT_EQ(me("m0")->full_handshake_count(), 2u);
  EXPECT_EQ(me("m0")->resumed_handshake_count(), 0u);
  // The stale entry was retired and replaced by the fresh handshake's.
  EXPECT_EQ(me("m0")->peer_session_count(), 1u);
}

TEST_F(AttestCacheTest, EpochBumpForcesFullRehandshake) {
  auto a = start_new(m0_, image_a_);
  ASSERT_EQ(migrate(a, m0_, m1_, image_a_), Status::kOk);

  // Re-deployment without a process restart: same object, new epoch.
  me("m1")->bump_instance_epoch();

  auto b = start_new(m0_, image_b_);
  ASSERT_EQ(migrate(b, m0_, m1_, image_b_), Status::kOk);
  EXPECT_EQ(me("m0")->full_handshake_count(), 2u);
  EXPECT_EQ(me("m0")->resumed_handshake_count(), 0u);
}

TEST_F(AttestCacheTest, TamperedResumeDowngradesToFullHandshake) {
  auto a = start_new(m0_, image_a_);
  ASSERT_EQ(migrate(a, m0_, m1_, image_a_), Status::kOk);

  // A man-in-the-middle flips a byte in every resume request.  The
  // responder MAC-rejects it (retiring its acceptor), the initiator
  // drops its cache entry, and the migration completes over a fresh
  // full handshake — the attack only costs the shortcut.
  size_t tampered = 0;
  world_.network().set_tamper_hook(
      [&](const std::string& to, Bytes& request) {
        if (to != "m1/me") return true;
        auto parsed = MeRequest::deserialize(request);
        if (parsed.ok() &&
            parsed.value().type == MeMsgType::kSessionResume &&
            !request.empty()) {
          request.back() ^= 0x01;
          ++tampered;
        }
        return true;
      });
  auto b = start_new(m0_, image_b_);
  const uint32_t id =
      b->ecall_create_migratable_counter().value().counter_id;
  b->ecall_increment_migratable_counter(id);
  ASSERT_EQ(migrate(b, m0_, m1_, image_b_), Status::kOk);
  world_.network().clear_tamper_hook();

  EXPECT_GE(tampered, 1u);
  EXPECT_EQ(me("m0")->resumed_handshake_count(), 0u);
  EXPECT_EQ(me("m0")->full_handshake_count(), 2u);
  // Exactly-once delivery survived the downgrade.
  EXPECT_EQ(b->ecall_read_migratable_counter(id).value(), 1u);
}

}  // namespace
}  // namespace sgxmig
