#include "crypto/gcm.h"

#include <cstring>
#include <stdexcept>

#include "crypto/aes.h"

namespace sgxmig::crypto {

namespace {

struct Block {
  uint64_t hi = 0;
  uint64_t lo = 0;
};

Block load_block(const uint8_t* p) {
  return Block{load_be64(p), load_be64(p + 8)};
}

void store_block(uint8_t* p, const Block& b) {
  store_be64(p, b.hi);
  store_be64(p + 8, b.lo);
}

// Reduction constants for Shoup's 4-bit method: shifting the GCM-reflected
// accumulator right by 4 drops a nibble `r` whose image modulo the GCM
// polynomial is last4[r] << 48 in the high word.
constexpr uint64_t kLast4[16] = {
    0x0000, 0x1c20, 0x3840, 0x2460, 0x7080, 0x6ca0, 0x48c0, 0x54e0,
    0xe100, 0xfd20, 0xd940, 0xc560, 0x9180, 0x8da0, 0xa9c0, 0xb5e0};

// GHASH over one hash subkey H (SP 800-38D §6.4), multiplying a nibble at
// a time against a 16-entry table of H * n for every 4-bit n (Shoup's
// method, as in mbedTLS gcm_mult).  The table is per-H, 256 bytes, and
// lives with the Ghash on the caller's stack.  Like the AES T-tables, its
// lookups are indexed by secret data and are not constant-time; see
// aes.cpp for why that is acceptable in the simulator.
class Ghash {
 public:
  explicit Ghash(const Block& h) {
    // Entry 8 (the nibble whose leading bit is set) is H itself; entries
    // 4, 2, 1 are H times x, x^2, x^3; the rest are XOR combinations.
    hh_[8] = h.hi;
    hl_[8] = h.lo;
    uint64_t vh = h.hi;
    uint64_t vl = h.lo;
    for (int i = 4; i > 0; i >>= 1) {
      const uint64_t carry = (vl & 1) * 0xe100000000000000ULL;
      vl = (vh << 63) | (vl >> 1);
      vh = (vh >> 1) ^ carry;
      hh_[i] = vh;
      hl_[i] = vl;
    }
    for (int i = 2; i <= 8; i *= 2) {
      for (int j = 1; j < i; ++j) {
        hh_[i + j] = hh_[i] ^ hh_[j];
        hl_[i + j] = hl_[i] ^ hl_[j];
      }
    }
  }

  void update(ByteView data) {
    const uint8_t* p = data.data();
    size_t left = data.size();
    for (; left >= 16; p += 16, left -= 16) {
      y_.hi ^= load_be64(p);
      y_.lo ^= load_be64(p + 8);
      multiply_y();
    }
    if (left != 0) {
      uint8_t block[16] = {0};
      std::memcpy(block, p, left);
      const Block b = load_block(block);
      y_.hi ^= b.hi;
      y_.lo ^= b.lo;
      multiply_y();
    }
  }

  void lengths(uint64_t aad_bits, uint64_t ct_bits) {
    y_.hi ^= aad_bits;
    y_.lo ^= ct_bits;
    multiply_y();
  }

  Block digest() const { return y_; }

 private:
  // y_ = y_ * H.  Nibbles are consumed from the last byte's low nibble up
  // to the first byte's high nibble (Horner's rule in the reflected
  // representation): shift the accumulator right by 4, fold the dropped
  // nibble back with kLast4, add the table entry.
  void multiply_y() {
    uint64_t zh = 0;
    uint64_t zl = 0;
    for (uint64_t word : {y_.lo, y_.hi}) {
      for (int i = 0; i < 16; ++i, word >>= 4) {
        const uint64_t rem = zl & 0xf;
        zl = (zh << 60) | (zl >> 4);
        zh = (zh >> 4) ^ (kLast4[rem] << 48);
        zh ^= hh_[word & 0xf];
        zl ^= hl_[word & 0xf];
      }
    }
    y_ = Block{zh, zl};
  }

  uint64_t hh_[16] = {};
  uint64_t hl_[16] = {};
  Block y_{0, 0};
};

void ctr_crypt(const Aes& aes, const uint8_t j0[16], ByteView in, Bytes& out) {
  uint8_t counter[16];
  std::memcpy(counter, j0, 16);
  uint32_t ctr = load_be32(counter + 12);
  out.resize(in.size());
  const uint8_t* src = in.data();
  uint8_t* dst = out.data();
  size_t left = in.size();
  uint8_t keystream[16] = {};
  for (; left >= 16; src += 16, dst += 16, left -= 16) {
    // inc32: only the low 32 bits of the counter block advance.
    store_be32(counter + 12, ++ctr);
    aes.encrypt_block(counter, keystream);
    for (int half = 0; half < 16; half += 8) {
      uint64_t data = 0;
      uint64_t pad = 0;
      std::memcpy(&data, src + half, 8);
      std::memcpy(&pad, keystream + half, 8);
      data ^= pad;
      std::memcpy(dst + half, &data, 8);
    }
  }
  if (left != 0) {
    store_be32(counter + 12, ++ctr);
    aes.encrypt_block(counter, keystream);
    for (size_t i = 0; i < left; ++i) dst[i] = src[i] ^ keystream[i];
  }
}

void compute_tag(const Aes& aes, const Block& hash_subkey,
                 const uint8_t j0[16], ByteView aad, ByteView ciphertext,
                 uint8_t tag[16]) {
  Ghash ghash(hash_subkey);
  ghash.update(aad);
  ghash.update(ciphertext);
  ghash.lengths(static_cast<uint64_t>(aad.size()) * 8,
                static_cast<uint64_t>(ciphertext.size()) * 8);
  uint8_t s[16];
  store_block(s, ghash.digest());
  uint8_t e[16];
  aes.encrypt_block(j0, e);
  for (int i = 0; i < 16; ++i) tag[i] = s[i] ^ e[i];
}

}  // namespace

GcmCiphertext gcm_encrypt(ByteView key, ByteView iv, ByteView aad,
                          ByteView plaintext) {
  if (iv.size() != kGcmIvSize) {
    throw std::invalid_argument("gcm_encrypt: IV must be 12 bytes");
  }
  const Aes aes(key);
  uint8_t zero[16] = {0};
  uint8_t h_bytes[16];
  aes.encrypt_block(zero, h_bytes);
  const Block h = load_block(h_bytes);

  uint8_t j0[16];
  std::memcpy(j0, iv.data(), 12);
  store_be32(j0 + 12, 1);

  GcmCiphertext out;
  std::memcpy(out.iv.data(), iv.data(), kGcmIvSize);
  ctr_crypt(aes, j0, plaintext, out.ciphertext);
  compute_tag(aes, h, j0, aad, out.ciphertext, out.tag.data());
  return out;
}

Result<Bytes> gcm_decrypt(ByteView key, ByteView iv, ByteView aad,
                          ByteView ciphertext, ByteView tag) {
  if (iv.size() != kGcmIvSize || tag.size() != kGcmTagSize) {
    return Status::kInvalidParameter;
  }
  const Aes aes(key);
  uint8_t zero[16] = {0};
  uint8_t h_bytes[16];
  aes.encrypt_block(zero, h_bytes);
  const Block h = load_block(h_bytes);

  uint8_t j0[16];
  std::memcpy(j0, iv.data(), 12);
  store_be32(j0 + 12, 1);

  uint8_t expected_tag[16];
  compute_tag(aes, h, j0, aad, ciphertext, expected_tag);
  if (!constant_time_eq(ByteView(expected_tag, 16), tag)) {
    return Status::kMacMismatch;
  }
  Bytes plaintext;
  ctr_crypt(aes, j0, ciphertext, plaintext);
  return plaintext;
}

}  // namespace sgxmig::crypto
