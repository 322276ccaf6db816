#include "apps/trinx.h"

#include "crypto/sha256.h"
#include "support/serde.h"

namespace sgxmig::apps {

namespace {
constexpr char kCertLabel[] = "TRINX-CERT-v1";

Bytes version_aad(uint32_t version) {
  BinaryWriter w;
  w.str("trinx-state");
  w.u32(version);
  return w.take();
}
}  // namespace

Bytes TrinxCertificate::signed_message() const {
  BinaryWriter w;
  w.str(kCertLabel);
  w.u32(counter_id);
  w.u64(value);
  w.fixed(message_hash);
  w.fixed(signer);
  return w.take();
}

bool TrinxCertificate::verify() const {
  return crypto::ed25519_verify(signer, signed_message(), signature);
}

TrinxEnclave::TrinxEnclave(sgx::PlatformIface& platform,
                           std::shared_ptr<const sgx::EnclaveImage> image,
                           migration::PersistenceMode persistence)
    : MigratableEnclave(platform, std::move(image), persistence) {}

Status TrinxEnclave::ecall_setup() {
  auto scope = enter_ecall();
  if (setup_done_) return Status::kAlreadyExists;
  rng().generate(signing_seed_.data(), signing_seed_.size());
  signing_key_ = crypto::Ed25519KeyPair::from_seed(signing_seed_);
  auto counter = library().create_migratable_counter();
  if (!counter.ok()) return counter.status();
  version_counter_ = counter.value().counter_id;
  setup_done_ = true;
  return Status::kOk;
}

Result<crypto::Ed25519PublicKey> TrinxEnclave::ecall_public_key() {
  auto scope = enter_ecall();
  if (!setup_done_) return Status::kNotInitialized;
  return signing_key_->public_key();
}

Result<uint32_t> TrinxEnclave::ecall_create_trinx_counter() {
  auto scope = enter_ecall();
  if (!setup_done_) return Status::kNotInitialized;
  if (library().frozen()) return Status::kMigrationFrozen;
  const uint32_t id = next_trinx_id_++;
  trinx_counters_[id] = 0;
  return id;
}

Result<TrinxCertificate> TrinxEnclave::ecall_certify(uint32_t counter_id,
                                                     ByteView message) {
  auto scope = enter_ecall();
  if (!setup_done_) return Status::kNotInitialized;
  if (library().frozen()) return Status::kMigrationFrozen;
  const auto it = trinx_counters_.find(counter_id);
  if (it == trinx_counters_.end()) return Status::kCounterNotFound;
  ++it->second;

  TrinxCertificate cert;
  cert.counter_id = counter_id;
  cert.value = it->second;
  cert.message_hash = crypto::Sha256::hash(message);
  cert.signer = signing_key_->public_key();
  cert.signature = signing_key_->sign(cert.signed_message());
  return cert;
}

Result<uint64_t> TrinxEnclave::ecall_counter_value(uint32_t counter_id) {
  auto scope = enter_ecall();
  const auto it = trinx_counters_.find(counter_id);
  if (it == trinx_counters_.end()) return Status::kCounterNotFound;
  return it->second;
}

Bytes TrinxEnclave::serialize_state() const {
  BinaryWriter w;
  w.fixed(signing_seed_);
  w.u32(next_trinx_id_);
  w.u32(static_cast<uint32_t>(trinx_counters_.size()));
  for (const auto& [id, value] : trinx_counters_) {
    w.u32(id);
    w.u64(value);
  }
  w.u32(*version_counter_);
  return w.take();
}

Status TrinxEnclave::deserialize_state(ByteView bytes) {
  BinaryReader r(bytes);
  signing_seed_ = r.fixed<32>();
  next_trinx_id_ = r.u32();
  const uint32_t count = r.u32();
  if (count > 100000) return Status::kTampered;
  std::map<uint32_t, uint64_t> counters;
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t id = r.u32();
    counters[id] = r.u64();
  }
  const uint32_t version_id = r.u32();
  if (!r.done()) return Status::kTampered;
  trinx_counters_ = std::move(counters);
  version_counter_ = version_id;
  signing_key_ = crypto::Ed25519KeyPair::from_seed(signing_seed_);
  setup_done_ = true;
  return Status::kOk;
}

Result<Bytes> TrinxEnclave::ecall_persist() {
  auto scope = enter_ecall();
  if (!setup_done_) return Status::kNotInitialized;
  auto version = library().increment_migratable_counter(*version_counter_);
  if (!version.ok()) return version.status();
  return library().seal_migratable_data(version_aad(version.value()),
                                        serialize_state());
}

Status TrinxEnclave::ecall_restore(ByteView blob) {
  auto scope = enter_ecall();
  if (setup_done_) return Status::kInvalidState;
  auto unsealed = library().unseal_migratable_data(blob);
  if (!unsealed.ok()) return unsealed.status();
  BinaryReader aad(unsealed.value().aad);
  if (aad.str(64) != "trinx-state") return Status::kTampered;
  const uint32_t stored_version = aad.u32();
  if (!aad.done()) return Status::kTampered;

  const Status status = deserialize_state(unsealed.value().plaintext);
  if (status != Status::kOk) return status;
  auto current = library().read_migratable_counter(*version_counter_);
  if (!current.ok()) {
    setup_done_ = false;
    return current.status();
  }
  if (current.value() != stored_version) {
    setup_done_ = false;
    return Status::kReplayDetected;
  }
  return Status::kOk;
}

}  // namespace sgxmig::apps
