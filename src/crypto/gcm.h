// AES-GCM authenticated encryption (NIST SP 800-38D).
//
// This is the algorithm behind SGX's sgx_seal_data (the SDK uses
// AES-128-GCM via sgx_rijndael128GCM_encrypt); every sealed blob, secure
// channel record, and migration-data payload in this repo goes through it.
#pragma once

#include <optional>

#include "support/bytes.h"
#include "support/status.h"

namespace sgxmig::crypto {

constexpr size_t kGcmIvSize = 12;
constexpr size_t kGcmTagSize = 16;

struct GcmCiphertext {
  std::array<uint8_t, kGcmIvSize> iv{};
  std::array<uint8_t, kGcmTagSize> tag{};
  Bytes ciphertext;
};

/// Encrypts `plaintext` with AES-GCM.  `key` must be 16, 24 or 32 bytes
/// (AES-128/192/256); `iv` must be exactly 12 bytes (the caller is
/// responsible for uniqueness).
GcmCiphertext gcm_encrypt(ByteView key, ByteView iv, ByteView aad,
                          ByteView plaintext);

/// Decrypts and authenticates.  Returns kMacMismatch if the tag (over the
/// AAD and ciphertext) does not verify; no plaintext is released then.
Result<Bytes> gcm_decrypt(ByteView key, ByteView iv, ByteView aad,
                          ByteView ciphertext, ByteView tag);

}  // namespace sgxmig::crypto
