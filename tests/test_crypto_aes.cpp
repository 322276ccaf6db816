// AES / GCM / CMAC / DRBG tests against published vectors (FIPS 197
// appendix C, the original GCM spec test cases, RFC 4493).
#include <gtest/gtest.h>

#include "crypto/aes.h"
#include "crypto/cmac.h"
#include "crypto/drbg.h"
#include "crypto/gcm.h"
#include "support/bytes.h"

namespace sgxmig::crypto {
namespace {

Bytes hx(std::string_view s) {
  bool ok = false;
  Bytes b = hex_decode(s, &ok);
  EXPECT_TRUE(ok) << s;
  return b;
}

TEST(Aes, Fips197Aes128) {
  const Bytes key = hx("000102030405060708090a0b0c0d0e0f");
  const Bytes pt = hx("00112233445566778899aabbccddeeff");
  const Aes aes(key);
  uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(hex_encode(ByteView(ct, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");
  uint8_t back[16];
  aes.decrypt_block(ct, back);
  EXPECT_EQ(hex_encode(ByteView(back, 16)), hex_encode(pt));
}

TEST(Aes, Fips197Aes192) {
  const Bytes key = hx("000102030405060708090a0b0c0d0e0f1011121314151617");
  const Bytes pt = hx("00112233445566778899aabbccddeeff");
  const Aes aes(key);
  uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(hex_encode(ByteView(ct, 16)), "dda97ca4864cdfe06eaf70a0ec0d7191");
}

TEST(Aes, Fips197Aes256) {
  const Bytes key =
      hx("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  const Bytes pt = hx("00112233445566778899aabbccddeeff");
  const Aes aes(key);
  uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(hex_encode(ByteView(ct, 16)), "8ea2b7ca516745bfeafc49904b496089");
  uint8_t back[16];
  aes.decrypt_block(ct, back);
  EXPECT_EQ(hex_encode(ByteView(back, 16)), hex_encode(pt));
}

TEST(Aes, Sp800_38aVector) {
  const Bytes key = hx("2b7e151628aed2a6abf7158809cf4f3c");
  const Bytes pt = hx("6bc1bee22e409f96e93d7e117393172a");
  const Aes aes(key);
  uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(hex_encode(ByteView(ct, 16)), "3ad77bb40d7a3660a89ecaf32466ef97");
}

TEST(Aes, RejectsBadKeySize) {
  EXPECT_THROW(Aes(Bytes(15, 0)), std::invalid_argument);
  EXPECT_THROW(Aes(Bytes(33, 0)), std::invalid_argument);
}

TEST(Gcm, SpecTestCase1EmptyEverything) {
  const Bytes key(16, 0);
  const Bytes iv(12, 0);
  const GcmCiphertext ct = gcm_encrypt(key, iv, ByteView(), ByteView());
  EXPECT_TRUE(ct.ciphertext.empty());
  EXPECT_EQ(hex_encode(ByteView(ct.tag.data(), ct.tag.size())),
            "58e2fccefa7e3061367f1d57a4e7455a");
}

TEST(Gcm, SpecTestCase2SingleZeroBlock) {
  const Bytes key(16, 0);
  const Bytes iv(12, 0);
  const Bytes pt(16, 0);
  const GcmCiphertext ct = gcm_encrypt(key, iv, ByteView(), pt);
  EXPECT_EQ(hex_encode(ct.ciphertext), "0388dace60b6a392f328c2b971b2fe78");
  EXPECT_EQ(hex_encode(ByteView(ct.tag.data(), ct.tag.size())),
            "ab6e47d42cec13bdf53a67b21257bddf");
}

TEST(Gcm, SpecTestCase3FourBlocks) {
  const Bytes key = hx("feffe9928665731c6d6a8f9467308308");
  const Bytes iv = hx("cafebabefacedbaddecaf888");
  const Bytes pt = hx(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255");
  const GcmCiphertext ct = gcm_encrypt(key, iv, ByteView(), pt);
  EXPECT_EQ(hex_encode(ct.ciphertext),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985");
  EXPECT_EQ(hex_encode(ByteView(ct.tag.data(), ct.tag.size())),
            "4d5c2af327cd64a62cf35abd2ba6fab4");
}

TEST(Gcm, SpecTestCase4WithAad) {
  const Bytes key = hx("feffe9928665731c6d6a8f9467308308");
  const Bytes iv = hx("cafebabefacedbaddecaf888");
  const Bytes pt = hx(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  const Bytes aad = hx("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  const GcmCiphertext ct = gcm_encrypt(key, iv, aad, pt);
  EXPECT_EQ(hex_encode(ct.ciphertext),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091");
  EXPECT_EQ(hex_encode(ByteView(ct.tag.data(), ct.tag.size())),
            "5bc94fbc3221a5db94fae95ae7121a47");
  // Round trip.
  const auto back = gcm_decrypt(key, iv, aad, ct.ciphertext,
                                ByteView(ct.tag.data(), ct.tag.size()));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), pt);
}

TEST(Gcm, SpecTestCase14Aes256SingleZeroBlock) {
  const Bytes key(32, 0);
  const Bytes iv(12, 0);
  const Bytes pt(16, 0);
  const GcmCiphertext ct = gcm_encrypt(key, iv, ByteView(), pt);
  EXPECT_EQ(hex_encode(ct.ciphertext), "cea7403d4d606b6e074ec5d3baf39d18");
  EXPECT_EQ(hex_encode(ByteView(ct.tag.data(), ct.tag.size())),
            "d0d1c8a799996bf0265b98b5d48ab919");
}

TEST(Gcm, SpecTestCase16Aes256WithAad) {
  const Bytes key = hx(
      "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308");
  const Bytes iv = hx("cafebabefacedbaddecaf888");
  const Bytes pt = hx(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  const Bytes aad = hx("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  const GcmCiphertext ct = gcm_encrypt(key, iv, aad, pt);
  EXPECT_EQ(hex_encode(ct.ciphertext),
            "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
            "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662");
  EXPECT_EQ(hex_encode(ByteView(ct.tag.data(), ct.tag.size())),
            "76fc6ece0f4e1768cddf8853bb2d551b");
  const auto back = gcm_decrypt(key, iv, aad, ct.ciphertext,
                                ByteView(ct.tag.data(), ct.tag.size()));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), pt);
}

TEST(Gcm, DecryptRejectsTamperedCiphertext) {
  const Bytes key(16, 0x42);
  const Bytes iv(12, 0x01);
  const Bytes pt = to_bytes(std::string_view("attack at dawn"));
  GcmCiphertext ct = gcm_encrypt(key, iv, ByteView(), pt);
  ct.ciphertext[3] ^= 0x80;
  const auto r = gcm_decrypt(key, iv, ByteView(), ct.ciphertext,
                             ByteView(ct.tag.data(), ct.tag.size()));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status(), Status::kMacMismatch);
}

TEST(Gcm, DecryptRejectsTamperedAad) {
  const Bytes key(16, 0x42);
  const Bytes iv(12, 0x01);
  const Bytes pt = to_bytes(std::string_view("attack at dawn"));
  const Bytes aad = to_bytes(std::string_view("header-v1"));
  const GcmCiphertext ct = gcm_encrypt(key, iv, aad, pt);
  const Bytes bad_aad = to_bytes(std::string_view("header-v2"));
  const auto r = gcm_decrypt(key, iv, bad_aad, ct.ciphertext,
                             ByteView(ct.tag.data(), ct.tag.size()));
  EXPECT_EQ(r.status(), Status::kMacMismatch);
}

TEST(Gcm, DecryptRejectsWrongKey) {
  const Bytes key(16, 0x42);
  const Bytes other_key(16, 0x43);
  const Bytes iv(12, 0x01);
  const Bytes pt = to_bytes(std::string_view("secret"));
  const GcmCiphertext ct = gcm_encrypt(key, iv, ByteView(), pt);
  const auto r = gcm_decrypt(other_key, iv, ByteView(), ct.ciphertext,
                             ByteView(ct.tag.data(), ct.tag.size()));
  EXPECT_EQ(r.status(), Status::kMacMismatch);
}

TEST(Gcm, Aes256KeysWork) {
  const Bytes key(32, 0x11);
  const Bytes iv(12, 0x22);
  const Bytes pt = to_bytes(std::string_view("sealed with a 256-bit key"));
  const GcmCiphertext ct = gcm_encrypt(key, iv, ByteView(), pt);
  const auto back = gcm_decrypt(key, iv, ByteView(), ct.ciphertext,
                                ByteView(ct.tag.data(), ct.tag.size()));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), pt);
}

TEST(Gcm, RoundTripManySizes) {
  const Bytes key(16, 0x37);
  for (size_t n : {size_t{0}, size_t{1}, size_t{15}, size_t{16}, size_t{17},
                   size_t{100}, size_t{1000}, size_t{4096}}) {
    Bytes pt(n);
    for (size_t i = 0; i < n; ++i) pt[i] = static_cast<uint8_t>(i * 7 + 1);
    Bytes iv(12, static_cast<uint8_t>(n & 0xff));
    const GcmCiphertext ct = gcm_encrypt(key, iv, ByteView(), pt);
    const auto back = gcm_decrypt(key, iv, ByteView(), ct.ciphertext,
                                  ByteView(ct.tag.data(), ct.tag.size()));
    ASSERT_TRUE(back.ok()) << n;
    EXPECT_EQ(back.value(), pt) << n;
  }
}

// RFC 4493 AES-CMAC test vectors.
TEST(Cmac, Rfc4493EmptyMessage) {
  const Bytes key = hx("2b7e151628aed2a6abf7158809cf4f3c");
  const CmacTag tag = aes_cmac(key, ByteView());
  EXPECT_EQ(hex_encode(ByteView(tag.data(), tag.size())),
            "bb1d6929e95937287fa37d129b756746");
}

TEST(Cmac, Rfc4493Block16) {
  const Bytes key = hx("2b7e151628aed2a6abf7158809cf4f3c");
  const CmacTag tag = aes_cmac(key, hx("6bc1bee22e409f96e93d7e117393172a"));
  EXPECT_EQ(hex_encode(ByteView(tag.data(), tag.size())),
            "070a16b46b4d4144f79bdd9dd04a287c");
}

TEST(Cmac, Rfc4493Block40) {
  const Bytes key = hx("2b7e151628aed2a6abf7158809cf4f3c");
  const CmacTag tag = aes_cmac(
      key, hx("6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
              "30c81c46a35ce411"));
  EXPECT_EQ(hex_encode(ByteView(tag.data(), tag.size())),
            "dfa66747de9ae63030ca32611497c827");
}

TEST(Cmac, Rfc4493Block64) {
  const Bytes key = hx("2b7e151628aed2a6abf7158809cf4f3c");
  const CmacTag tag = aes_cmac(
      key, hx("6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
              "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710"));
  EXPECT_EQ(hex_encode(ByteView(tag.data(), tag.size())),
            "51f0bebf7e3b9d92fc49741779363cfe");
}

TEST(Drbg, DeterministicFromSeed) {
  const Bytes seed(32, 0x55);
  CtrDrbg a(seed);
  CtrDrbg b(seed);
  EXPECT_EQ(a.bytes(64), b.bytes(64));
}

TEST(Drbg, OutputAdvances) {
  CtrDrbg d(Bytes(32, 0x55));
  const Bytes first = d.bytes(32);
  const Bytes second = d.bytes(32);
  EXPECT_NE(first, second);
}

TEST(Drbg, DifferentSeedsDiffer) {
  CtrDrbg a(Bytes(32, 0x01));
  CtrDrbg b(Bytes(32, 0x02));
  EXPECT_NE(a.bytes(32), b.bytes(32));
}

TEST(Drbg, ReseedChangesStream) {
  CtrDrbg a(Bytes(32, 0x01));
  CtrDrbg b(Bytes(32, 0x01));
  b.reseed(to_bytes(std::string_view("extra entropy")));
  EXPECT_NE(a.bytes(32), b.bytes(32));
}

TEST(Drbg, RejectsShortSeed) {
  EXPECT_THROW(CtrDrbg(Bytes(16, 0)), std::invalid_argument);
}

}  // namespace
}  // namespace sgxmig::crypto
