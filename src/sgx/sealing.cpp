#include "sgx/sealing.h"

#include "crypto/gcm.h"
#include "support/serde.h"

namespace sgxmig::sgx {

namespace {
constexpr char kMagic[] = "SGXMIG-SEALED-v1";

// The AAD fed to GCM covers the key request so it cannot be swapped.
Bytes gcm_aad(KeyPolicy policy, const KeyId& key_id, ByteView user_aad) {
  BinaryWriter w;
  w.u16(static_cast<uint16_t>(policy));
  w.fixed(key_id);
  w.bytes(user_aad);
  return w.take();
}

// The sealed blob on untrusted storage.
struct SealedBlob : Record<SealedBlob> {
  KeyPolicy policy = KeyPolicy::kMrEnclave;
  KeyId key_id{};
  Bytes aad;
  std::array<uint8_t, 12> iv{};
  std::array<uint8_t, 16> tag{};
  Bytes ciphertext;

  template <class Io, class Self>
  static void layout(Io& io, Self& b) {
    io.magic(kMagic);
    io.enumeration(b.policy, KeyPolicy::kMrEnclave, KeyPolicy::kMrSigner);
    io.fixed(b.key_id);
    io.bytes(b.aad, BinaryReader::kDefaultMaxLen);
    io.fixed(b.iv);
    io.fixed(b.tag);
    io.bytes(b.ciphertext, BinaryReader::kDefaultMaxLen);
  }
};
}  // namespace

size_t sealed_blob_size(size_t aad_len, size_t plaintext_len) {
  // magic(str) + policy + key_id + aad + iv + tag + ciphertext, with the
  // u32 length prefixes from the serialization format.
  return 4 + sizeof(kMagic) - 1 + 2 + 32 + 4 + aad_len + 12 + 16 + 4 +
         plaintext_len;
}

namespace {
// Shared by seal_data and SealContext::seal: everything after key
// derivation, emitting the wire format unseal_data expects.
Result<Bytes> seal_with_key(const Key128& key, const KeyId& key_id,
                            KeyPolicy policy, crypto::CtrDrbg& drbg,
                            ByteView aad, ByteView plaintext) {
  Bytes iv(crypto::kGcmIvSize);
  drbg.generate(iv.data(), iv.size());

  crypto::GcmCiphertext ct =
      crypto::gcm_encrypt(ByteView(key.data(), key.size()), iv,
                          gcm_aad(policy, key_id, aad), plaintext);
  SealedBlob blob;
  blob.policy = policy;
  blob.key_id = key_id;
  blob.aad.assign(aad.begin(), aad.end());
  blob.iv = ct.iv;
  blob.tag = ct.tag;
  blob.ciphertext = std::move(ct.ciphertext);
  return blob.serialize();
}
}  // namespace

Result<Bytes> seal_data(const SimCpu& cpu, const EnclaveIdentity& self,
                        crypto::CtrDrbg& drbg, KeyPolicy policy, ByteView aad,
                        ByteView plaintext) {
  KeyId key_id{};
  drbg.generate(key_id.data(), key_id.size());
  const Key128 key = cpu.get_key(KeyName::kSeal, policy, self, key_id);
  return seal_with_key(key, key_id, policy, drbg, aad, plaintext);
}

SealContext::SealContext(const SimCpu& cpu, const EnclaveIdentity& self,
                         crypto::CtrDrbg& drbg, KeyPolicy policy)
    : drbg_(drbg), policy_(policy) {
  drbg.generate(key_id_.data(), key_id_.size());
  key_ = cpu.get_key(KeyName::kSeal, policy, self, key_id_);
}

Result<Bytes> SealContext::seal(ByteView aad, ByteView plaintext) {
  return seal_with_key(key_, key_id_, policy_, drbg_, aad, plaintext);
}

Result<UnsealedData> unseal_data(const SimCpu& cpu,
                                 const EnclaveIdentity& self,
                                 ByteView sealed_blob) {
  auto parsed = SealedBlob::deserialize(sealed_blob);
  if (!parsed.ok()) return parsed.status();
  SealedBlob& blob = parsed.value();
  const Key128 key =
      cpu.get_key(KeyName::kSeal, blob.policy, self, blob.key_id);
  auto plaintext = crypto::gcm_decrypt(
      ByteView(key.data(), key.size()),
      ByteView(blob.iv.data(), blob.iv.size()),
      gcm_aad(blob.policy, blob.key_id, blob.aad), blob.ciphertext,
      ByteView(blob.tag.data(), blob.tag.size()));
  if (!plaintext.ok()) return plaintext.status();

  UnsealedData out;
  out.plaintext = std::move(plaintext).value();
  out.aad = std::move(blob.aad);
  return out;
}

}  // namespace sgxmig::sgx
