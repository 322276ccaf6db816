// Wire format of Platform Services (monotonic counter) calls.
//
// App enclaves reach Platform Services through a simulated Unix-socket →
// TCP proxy chain into the management VM (paper §VI-C), so the operations
// are serialized.  A session token — a MAC over the caller's MRENCLAVE
// with a machine secret — models the local attestation that binds a PSE
// session to the calling enclave; software outside an enclave cannot forge
// it, which the tests exercise.
#pragma once

#include "crypto/cmac.h"
#include "sgx/pse.h"
#include "sgx/types.h"
#include "support/bytes.h"
#include "support/status.h"

namespace sgxmig::sgx {

enum class PseOp : uint8_t {
  kCreate = 1,
  kRead = 2,
  kIncrement = 3,
  kDestroy = 4,
  /// Logical mass-destroy of every counter the caller owns (one firmware
  /// journal entry); physical slot reclaim is the background sweep.
  kRetireAll = 5,
};

struct PseRequest : Record<PseRequest> {
  PseOp op = PseOp::kRead;
  Measurement owner{};
  crypto::CmacTag session_token{};
  CounterUuid uuid{};        // ignored for kCreate
  Bytes nonce_entropy;       // only for kCreate

  template <class Io, class Self>
  static void layout(Io& io, Self& r) {
    io.enumeration(r.op, PseOp::kCreate, PseOp::kRetireAll);
    io.fixed(r.owner);
    io.fixed(r.session_token);
    CounterUuid::layout(io, r.uuid);
    io.bytes(r.nonce_entropy, 64);
  }
};

struct PseResponse : Record<PseResponse> {
  Status status = Status::kUnexpected;
  CounterUuid uuid{};   // for kCreate
  uint32_t value = 0;   // for kCreate/kRead/kIncrement

  template <class Io, class Self>
  static void layout(Io& io, Self& r) {
    io.u32(r.status);
    CounterUuid::layout(io, r.uuid);
    io.u32(r.value);
  }
};

/// Session token binding `owner` to this machine's PSE.
crypto::CmacTag pse_session_token(const Key128& machine_secret,
                                  const Measurement& owner);

}  // namespace sgxmig::sgx
