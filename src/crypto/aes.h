// AES-128/192/256 block cipher (FIPS 197), implemented from scratch.
//
// Encryption runs on four 256-entry T-tables (SubBytes, ShiftRows and
// MixColumns folded into word lookups) with an S-box final round;
// decryption is the plain byte-wise inverse cipher, kept as the oracle
// the tests check encryption against (GCM, CMAC and the DRBG only
// encrypt).  This code stands in for the AES-NI instructions the paper's
// enclaves use.  Its host speed does not feed virtual time: the cost
// model's CostModel::aes_gcm_ns_per_byte is a fixed AES-NI figure, and
// bench/bench_crypto.cpp only reports how fast the simulator itself is.
#pragma once

#include <array>
#include <cstdint>

#include "support/bytes.h"

namespace sgxmig::crypto {

using Aes128Key = std::array<uint8_t, 16>;

class Aes {
 public:
  /// `key` must be 16, 24, or 32 bytes.
  explicit Aes(ByteView key);

  void encrypt_block(const uint8_t in[16], uint8_t out[16]) const;
  void decrypt_block(const uint8_t in[16], uint8_t out[16]) const;

  static constexpr size_t kBlockSize = 16;

 private:
  uint8_t round_keys_[15 * 16];  // up to 14 rounds + initial
  int rounds_;
};

}  // namespace sgxmig::crypto
