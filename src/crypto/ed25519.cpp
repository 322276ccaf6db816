#include "crypto/ed25519.h"

#include <cstring>

#include "crypto/fe25519.h"
#include "crypto/sc25519.h"
#include "crypto/sha512.h"

namespace sgxmig::crypto {

namespace {

// Point in extended twisted Edwards coordinates (X : Y : Z : T), T = XY/Z.
struct Ge {
  Fe x, y, z, t;
};

// Curve constant d = -121665/121666 mod p, computed once.
const Fe& curve_d() {
  static const Fe value = fe_neg(
      fe_mul(fe_from_u64(121665), fe_invert(fe_from_u64(121666))));
  return value;
}

const Fe& curve_2d() {
  static const Fe value = fe_add(curve_d(), curve_d());
  return value;
}

Ge ge_identity() { return Ge{fe_zero(), fe_one(), fe_one(), fe_zero()}; }

// Strongly unified addition (add-2008-hwcd-3 for a = -1); valid for
// doubling and for the identity element.
Ge ge_add(const Ge& p, const Ge& q) {
  const Fe a = fe_mul(fe_sub(p.y, p.x), fe_sub(q.y, q.x));
  const Fe b = fe_mul(fe_add(p.y, p.x), fe_add(q.y, q.x));
  const Fe c = fe_mul(fe_mul(p.t, curve_2d()), q.t);
  const Fe d = fe_mul(fe_add(p.z, p.z), q.z);
  const Fe e = fe_sub(b, a);
  const Fe f = fe_sub(d, c);
  const Fe g = fe_add(d, c);
  const Fe h = fe_add(b, a);
  return Ge{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

Ge ge_neg(const Ge& p) { return Ge{fe_neg(p.x), p.y, p.z, fe_neg(p.t)}; }

// Variable-time double-and-add; acceptable in the simulator (host timing
// side channels are out of its threat model, see fe25519.h).
Ge ge_scalarmult(const Ge& p, const uint8_t scalar[32]) {
  Ge r = ge_identity();
  for (int i = 255; i >= 0; --i) {
    r = ge_add(r, r);
    if ((scalar[i / 8] >> (i % 8)) & 1) r = ge_add(r, p);
  }
  return r;
}

void ge_tobytes(uint8_t out[32], const Ge& p) {
  const Fe zinv = fe_invert(p.z);
  const Fe x = fe_mul(p.x, zinv);
  const Fe y = fe_mul(p.y, zinv);
  fe_tobytes(out, y);
  out[31] ^= static_cast<uint8_t>(fe_is_negative(x) << 7);
}

// Decompression per RFC 8032 §5.1.3.  Returns false for invalid encodings.
bool ge_frombytes(Ge& out, const uint8_t s[32]) {
  const Fe y = fe_frombytes(s);
  const int sign = s[31] >> 7;

  const Fe y2 = fe_sq(y);
  const Fe u = fe_sub(y2, fe_one());            // y^2 - 1
  const Fe v = fe_add(fe_mul(y2, curve_d()), fe_one());  // d y^2 + 1

  // Candidate root: x = (u/v)^((p+3)/8) = u v^3 (u v^7)^((p-5)/8).
  const Fe v3 = fe_mul(fe_sq(v), v);
  const Fe v7 = fe_mul(fe_sq(v3), v);
  Fe x = fe_mul(fe_mul(u, v3), fe_pow22523(fe_mul(u, v7)));

  const Fe vx2 = fe_mul(v, fe_sq(x));
  if (!fe_equal(vx2, u)) {
    if (fe_equal(vx2, fe_neg(u))) {
      x = fe_mul(x, fe_sqrtm1());
    } else {
      return false;
    }
  }
  if (fe_is_zero(x) && sign == 1) return false;  // -0 is invalid
  if (fe_is_negative(x) != sign) x = fe_neg(x);

  out = Ge{x, y, fe_one(), fe_mul(x, y)};
  return true;
}

const Ge& base_point() {
  static const Ge value = [] {
    // Standard little-endian encoding of B = (x, 4/5) with x "positive":
    // 0x58 0x66 0x66 ... 0x66.
    uint8_t enc[32];
    std::memset(enc, 0x66, 32);
    enc[0] = 0x58;
    Ge b{};
    const bool ok = ge_frombytes(b, enc);
    (void)ok;
    return b;
  }();
  return value;
}

void clamp(uint8_t scalar[32]) {
  scalar[0] &= 248;
  scalar[31] &= 127;
  scalar[31] |= 64;
}

}  // namespace

Ed25519KeyPair Ed25519KeyPair::from_seed(const Ed25519Seed& seed) {
  Ed25519KeyPair kp;
  kp.seed_ = seed;
  const Sha512Digest h = Sha512::hash(ByteView(seed.data(), seed.size()));
  std::memcpy(kp.scalar_.data(), h.data(), 32);
  std::memcpy(kp.prefix_.data(), h.data() + 32, 32);
  clamp(kp.scalar_.data());
  const Ge a = ge_scalarmult(base_point(), kp.scalar_.data());
  ge_tobytes(kp.public_key_.data(), a);
  return kp;
}

Ed25519Signature Ed25519KeyPair::sign(ByteView message) const {
  // r = SHA512(prefix || M) mod L.
  Sha512 hr;
  hr.update(ByteView(prefix_.data(), prefix_.size()));
  hr.update(message);
  const Sha512Digest r_hash = hr.finish();
  const Sc r = sc_from_bytes(ByteView(r_hash.data(), r_hash.size()));

  uint8_t r_bytes[32];
  sc_tobytes(r_bytes, r);
  const Ge r_point = ge_scalarmult(base_point(), r_bytes);
  Ed25519Signature sig{};
  ge_tobytes(sig.data(), r_point);

  // k = SHA512(enc(R) || pub || M) mod L.
  Sha512 hk;
  hk.update(ByteView(sig.data(), 32));
  hk.update(ByteView(public_key_.data(), public_key_.size()));
  hk.update(message);
  const Sha512Digest k_hash = hk.finish();
  const Sc k = sc_from_bytes(ByteView(k_hash.data(), k_hash.size()));

  // S = r + k * s mod L.
  const Sc s = sc_from_bytes(ByteView(scalar_.data(), scalar_.size()));
  const Sc big_s = sc_muladd(k, s, r);
  sc_tobytes(sig.data() + 32, big_s);
  return sig;
}

bool ed25519_verify(const Ed25519PublicKey& public_key, ByteView message,
                    const Ed25519Signature& signature) {
  if (!sc_is_canonical(signature.data() + 32)) return false;
  Ge a{};
  if (!ge_frombytes(a, public_key.data())) return false;

  Sha512 hk;
  hk.update(ByteView(signature.data(), 32));
  hk.update(ByteView(public_key.data(), public_key.size()));
  hk.update(message);
  const Sha512Digest k_hash = hk.finish();
  const Sc k = sc_from_bytes(ByteView(k_hash.data(), k_hash.size()));
  uint8_t k_bytes[32];
  sc_tobytes(k_bytes, k);

  // Check enc(S*B - k*A) == R.
  const Ge sb = ge_scalarmult(base_point(), signature.data() + 32);
  const Ge ka = ge_scalarmult(ge_neg(a), k_bytes);
  const Ge r_check = ge_add(sb, ka);
  uint8_t r_bytes[32];
  ge_tobytes(r_bytes, r_check);
  return constant_time_eq(ByteView(r_bytes, 32), ByteView(signature.data(), 32));
}

}  // namespace sgxmig::crypto
