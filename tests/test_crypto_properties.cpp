// Property-based crypto tests: algebraic laws and randomized sweeps over
// the from-scratch primitives, complementing the fixed RFC/NIST vectors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "crypto/aes.h"
#include "crypto/drbg.h"
#include "crypto/ed25519.h"
#include "crypto/fe25519.h"
#include "crypto/gcm.h"
#include "crypto/hmac.h"
#include "crypto/sc25519.h"
#include "crypto/sha256.h"
#include "crypto/x25519.h"
#include "support/rng.h"

namespace sgxmig::crypto {
namespace {

class CryptoProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  Rng rng_{GetParam()};
};

// ----- field arithmetic laws -----

TEST_P(CryptoProperty, FieldRingLaws) {
  auto random_fe = [&] {
    uint8_t bytes[32];
    rng_.fill(bytes, 32);
    bytes[31] &= 0x7f;
    return fe_frombytes(bytes);
  };
  const Fe a = random_fe(), b = random_fe(), c = random_fe();
  // Commutativity and associativity of + and *.
  EXPECT_TRUE(fe_equal(fe_add(a, b), fe_add(b, a)));
  EXPECT_TRUE(fe_equal(fe_mul(a, b), fe_mul(b, a)));
  EXPECT_TRUE(fe_equal(fe_add(fe_add(a, b), c), fe_add(a, fe_add(b, c))));
  EXPECT_TRUE(fe_equal(fe_mul(fe_mul(a, b), c), fe_mul(a, fe_mul(b, c))));
  // Distributivity.
  EXPECT_TRUE(fe_equal(fe_mul(a, fe_add(b, c)),
                       fe_add(fe_mul(a, b), fe_mul(a, c))));
  // Additive and multiplicative inverses.
  EXPECT_TRUE(fe_is_zero(fe_add(a, fe_neg(a))));
  if (!fe_is_zero(a)) {
    EXPECT_TRUE(fe_equal(fe_mul(a, fe_invert(a)), fe_one()));
  }
  // Squaring law.
  EXPECT_TRUE(fe_equal(fe_sq(a), fe_mul(a, a)));
}

// ----- scalar arithmetic laws -----

TEST_P(CryptoProperty, ScalarRingLaws) {
  const Sc a = sc_from_bytes(rng_.bytes(32));
  const Sc b = sc_from_bytes(rng_.bytes(32));
  const Sc c = sc_from_bytes(rng_.bytes(32));
  const Sc zero = sc_zero();
  const Sc one = sc_from_bytes(Bytes{1});

  auto eq = [](const Sc& x, const Sc& y) {
    uint8_t xb[32], yb[32];
    sc_tobytes(xb, x);
    sc_tobytes(yb, y);
    return constant_time_eq(ByteView(xb, 32), ByteView(yb, 32));
  };

  // muladd(a, 1, b) == add(a, b); muladd(a, 0, c) == c.
  EXPECT_TRUE(eq(sc_muladd(a, one, b), sc_add(a, b)));
  EXPECT_TRUE(eq(sc_muladd(a, zero, c), c));
  // Commutativity of * and +.
  EXPECT_TRUE(eq(sc_muladd(a, b, zero), sc_muladd(b, a, zero)));
  EXPECT_TRUE(eq(sc_add(a, b), sc_add(b, a)));
  // Distributivity: a*(b+c) == a*b + a*c.
  EXPECT_TRUE(eq(sc_muladd(a, sc_add(b, c), zero),
                 sc_add(sc_muladd(a, b, zero), sc_muladd(a, c, zero))));
  // Result is always canonical.
  uint8_t bytes[32];
  sc_tobytes(bytes, sc_muladd(a, b, c));
  EXPECT_TRUE(sc_is_canonical(bytes));
}

// ----- X25519 Diffie-Hellman property -----

TEST_P(CryptoProperty, X25519SharedSecretAgrees) {
  X25519Key a{}, b{};
  rng_.fill(a.data(), 32);
  rng_.fill(b.data(), 32);
  const X25519Key pub_a = x25519_base(a);
  const X25519Key pub_b = x25519_base(b);
  EXPECT_EQ(x25519(a, pub_b), x25519(b, pub_a));
  // Distinct keys give distinct public values (overwhelmingly).
  EXPECT_NE(pub_a, pub_b);
}

// ----- Ed25519 sweep -----

TEST_P(CryptoProperty, Ed25519SignVerifySweep) {
  Ed25519Seed seed{};
  rng_.fill(seed.data(), seed.size());
  const auto kp = Ed25519KeyPair::from_seed(seed);
  const Bytes message = rng_.bytes(1 + rng_.uniform(512));
  const Ed25519Signature sig = kp.sign(message);
  EXPECT_TRUE(ed25519_verify(kp.public_key(), message, sig));

  // Any single bit flip in the signature breaks it.
  Ed25519Signature bad = sig;
  const size_t byte = rng_.uniform(bad.size());
  bad[byte] ^= static_cast<uint8_t>(1u << rng_.uniform(8));
  EXPECT_FALSE(ed25519_verify(kp.public_key(), message, bad));

  // Any change to the message breaks it.
  Bytes other = message;
  other[rng_.uniform(other.size())] ^= 0x01;
  EXPECT_FALSE(ed25519_verify(kp.public_key(), other, sig));
}

// ----- GCM randomized round trips -----

TEST_P(CryptoProperty, GcmRandomRoundTrips) {
  const Bytes key = rng_.bytes(rng_.uniform(2) == 0 ? 16 : 32);
  const Bytes iv = rng_.bytes(12);
  const Bytes aad = rng_.bytes(rng_.uniform(48));
  const Bytes plaintext = rng_.bytes(rng_.uniform(2048));
  const GcmCiphertext ct = gcm_encrypt(key, iv, aad, plaintext);
  auto back = gcm_decrypt(key, iv, aad, ct.ciphertext,
                          ByteView(ct.tag.data(), ct.tag.size()));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), plaintext);

  // Ciphertext differs from plaintext (for non-empty inputs).
  if (!plaintext.empty()) {
    EXPECT_NE(ct.ciphertext, plaintext);
  }

  // Tag flip rejected.
  auto bad_tag = ct.tag;
  bad_tag[rng_.uniform(16)] ^= 0x01;
  EXPECT_FALSE(gcm_decrypt(key, iv, aad, ct.ciphertext,
                           ByteView(bad_tag.data(), bad_tag.size()))
                   .ok());
}

TEST_P(CryptoProperty, GcmIvSeparation) {
  // The same plaintext under two IVs yields unrelated ciphertexts.
  const Bytes key = rng_.bytes(16);
  const Bytes pt = rng_.bytes(64);
  Bytes iv1 = rng_.bytes(12);
  Bytes iv2 = iv1;
  iv2[11] ^= 1;
  const GcmCiphertext c1 = gcm_encrypt(key, iv1, ByteView(), pt);
  const GcmCiphertext c2 = gcm_encrypt(key, iv2, ByteView(), pt);
  EXPECT_NE(c1.ciphertext, c2.ciphertext);
  EXPECT_NE(c1.tag, c2.tag);
}

// ----- differential checks against kept reference implementations -----

// Reference GF(2^128) multiply: the bit-serial right-shift algorithm of
// SP 800-38D §6.3, one bit of x per step.  The library's table-driven
// GHASH must agree with it on every input.
struct RefBlock {
  uint64_t hi = 0;
  uint64_t lo = 0;
};

RefBlock ref_ghash_multiply(const RefBlock& x, const RefBlock& h) {
  RefBlock z{0, 0};
  RefBlock v = h;
  for (int i = 0; i < 128; ++i) {
    const uint64_t bit =
        i < 64 ? (x.hi >> (63 - i)) & 1 : (x.lo >> (127 - i)) & 1;
    if (bit != 0) {
      z.hi ^= v.hi;
      z.lo ^= v.lo;
    }
    const uint64_t lsb = v.lo & 1;
    v.lo = (v.lo >> 1) | (v.hi << 63);
    v.hi >>= 1;
    if (lsb != 0) v.hi ^= 0xe100000000000000ULL;
  }
  return z;
}

void ref_ghash_absorb(RefBlock& y, const RefBlock& h, ByteView data) {
  for (size_t offset = 0; offset < data.size(); offset += 16) {
    uint8_t block[16] = {0};
    std::memcpy(block, data.data() + offset,
                std::min<size_t>(16, data.size() - offset));
    y.hi ^= load_be64(block);
    y.lo ^= load_be64(block + 8);
    y = ref_ghash_multiply(y, h);
  }
}

// GCM encryption written out byte by byte from SP 800-38D §7.1, with the
// reference GHASH; only the block cipher is shared with the library.
GcmCiphertext ref_gcm_encrypt(ByteView key, ByteView iv, ByteView aad,
                              ByteView plaintext) {
  const Aes aes(key);
  uint8_t block[16] = {0};
  aes.encrypt_block(block, block);
  const RefBlock h{load_be64(block), load_be64(block + 8)};

  uint8_t j0[16] = {0};
  std::memcpy(j0, iv.data(), 12);
  j0[15] = 1;
  GcmCiphertext out;
  std::memcpy(out.iv.data(), iv.data(), 12);
  out.ciphertext.resize(plaintext.size());
  uint8_t counter[16];
  std::memcpy(counter, j0, 16);
  for (size_t i = 0; i < plaintext.size(); ++i) {
    if (i % 16 == 0) {
      store_be32(counter + 12, load_be32(counter + 12) + 1);
      aes.encrypt_block(counter, block);
    }
    out.ciphertext[i] = plaintext[i] ^ block[i % 16];
  }

  RefBlock y{0, 0};
  ref_ghash_absorb(y, h, aad);
  ref_ghash_absorb(y, h, out.ciphertext);
  y.hi ^= static_cast<uint64_t>(aad.size()) * 8;
  y.lo ^= static_cast<uint64_t>(plaintext.size()) * 8;
  y = ref_ghash_multiply(y, h);
  uint8_t s_block[16];
  store_be64(s_block, y.hi);
  store_be64(s_block + 8, y.lo);
  aes.encrypt_block(j0, block);
  for (int i = 0; i < 16; ++i) out.tag[i] = s_block[i] ^ block[i];
  return out;
}

TEST(CryptoReference, GcmMatchesBitSerialReference) {
  Rng rng(0x6763'6d72'6566ULL);
  for (size_t key_size : {size_t{16}, size_t{24}, size_t{32}}) {
    std::vector<size_t> pt_sizes;
    for (size_t n = 0; n <= 80; ++n) pt_sizes.push_back(n);
    pt_sizes.push_back(4096);
    for (size_t aad_size = 0; aad_size <= 40; ++aad_size) {
      for (size_t pt_size : pt_sizes) {
        const Bytes key = rng.bytes(key_size);
        const Bytes iv = rng.bytes(12);
        const Bytes aad = rng.bytes(aad_size);
        const Bytes pt = rng.bytes(pt_size);
        const GcmCiphertext got = gcm_encrypt(key, iv, aad, pt);
        const GcmCiphertext want = ref_gcm_encrypt(key, iv, aad, pt);
        ASSERT_EQ(got.ciphertext, want.ciphertext)
            << "key " << key_size << " aad " << aad_size << " pt " << pt_size;
        ASSERT_EQ(got.tag, want.tag)
            << "key " << key_size << " aad " << aad_size << " pt " << pt_size;
      }
    }
  }
}

TEST(CryptoReference, AesEncryptIsInvertedByByteWiseDecrypt) {
  // decrypt_block is the plain FIPS 197 inverse cipher; encrypt_block is
  // table-driven.  100 keys x 100 blocks per key size.
  Rng rng(0x6165'7372'6566ULL);
  for (size_t key_size : {size_t{16}, size_t{24}, size_t{32}}) {
    for (int k = 0; k < 100; ++k) {
      const Aes aes(rng.bytes(key_size));
      for (int b = 0; b < 100; ++b) {
        uint8_t pt[16];
        rng.fill(pt, 16);
        uint8_t ct[16];
        aes.encrypt_block(pt, ct);
        uint8_t back[16];
        aes.decrypt_block(ct, back);
        ASSERT_EQ(0, std::memcmp(back, pt, 16)) << "key size " << key_size;
        // In place: CMAC encrypts into its input buffer.
        uint8_t in_place[16];
        std::memcpy(in_place, pt, 16);
        aes.encrypt_block(in_place, in_place);
        ASSERT_EQ(0, std::memcmp(in_place, ct, 16)) << "key size " << key_size;
      }
    }
  }
}

// ----- hash/MAC/DRBG sweeps -----

TEST_P(CryptoProperty, Sha256SplitInvariance) {
  const Bytes data = rng_.bytes(1 + rng_.uniform(4096));
  const size_t split = rng_.uniform(data.size() + 1);
  Sha256 h;
  h.update(ByteView(data.data(), split));
  h.update(ByteView(data.data() + split, data.size() - split));
  EXPECT_EQ(h.finish(), Sha256::hash(data));
}

TEST_P(CryptoProperty, HmacKeySensitivity) {
  const Bytes key = rng_.bytes(32);
  Bytes other_key = key;
  other_key[rng_.uniform(32)] ^= 0x01;
  const Bytes msg = rng_.bytes(128);
  EXPECT_NE(hmac_sha256(key, msg), hmac_sha256(other_key, msg));
}

TEST_P(CryptoProperty, DrbgStreamsNeverCollide) {
  CtrDrbg a(rng_.bytes(32));
  CtrDrbg b(rng_.bytes(32));
  EXPECT_NE(a.bytes(32), b.bytes(32));
  // Sequential outputs of one DRBG never repeat either.
  CtrDrbg c(rng_.bytes(32));
  const Bytes first = c.bytes(16);
  for (int i = 0; i < 50; ++i) EXPECT_NE(c.bytes(16), first);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CryptoProperty,
                         ::testing::Values(1, 7, 42, 1337, 99999, 123456789,
                                           0xdeadbeef, 0xcafebabe));

}  // namespace
}  // namespace sgxmig::crypto
