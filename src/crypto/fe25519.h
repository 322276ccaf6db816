// Field arithmetic modulo p = 2^255 - 19, with 5 limbs of 51 bits
// (curve25519-donna style, using unsigned __int128 accumulation).
//
// Shared by X25519 (Montgomery ladder) and Ed25519 (Edwards curve).
// Exponentiation is square-and-multiply over public exponents; this is a
// simulator, not a hardened production signer, and timing side channels of
// the host are out of the simulated threat model: every party shares one
// process on simulated hardware, so there is no co-resident timer.
#pragma once

#include <array>
#include <cstdint>

namespace sgxmig::crypto {

struct Fe {
  uint64_t v[5];
};

Fe fe_zero();
Fe fe_one();
Fe fe_from_u64(uint64_t x);

Fe fe_add(const Fe& a, const Fe& b);
Fe fe_sub(const Fe& a, const Fe& b);
Fe fe_mul(const Fe& a, const Fe& b);
Fe fe_sq(const Fe& a);
Fe fe_mul_small(const Fe& a, uint64_t s);  // s < 2^13
Fe fe_neg(const Fe& a);

/// a^e where `e` is a little-endian 256-bit exponent (variable time).
Fe fe_pow(const Fe& a, const std::array<uint8_t, 32>& e);
Fe fe_invert(const Fe& a);     // a^(p-2)
Fe fe_pow22523(const Fe& a);   // a^((p-5)/8), used for square roots

/// Conditionally swaps a and b when `swap` is 1 (branch-free).
void fe_cswap(Fe& a, Fe& b, uint64_t swap);

/// Decodes 32 little-endian bytes (top bit ignored, as in RFC 7748/8032).
Fe fe_frombytes(const uint8_t s[32]);
/// Encodes fully reduced (canonical) 32-byte little-endian form.
void fe_tobytes(uint8_t out[32], const Fe& f);

bool fe_is_zero(const Fe& a);
/// The "sign" used by Ed25519 encodings: lowest bit of the canonical form.
int fe_is_negative(const Fe& a);
bool fe_equal(const Fe& a, const Fe& b);

/// sqrt(-1) mod p (lazily computed constant).
const Fe& fe_sqrtm1();

}  // namespace sgxmig::crypto
