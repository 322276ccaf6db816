#include "sgx/pse_wire.h"

#include "support/serde.h"

namespace sgxmig::sgx {

crypto::CmacTag pse_session_token(const Key128& machine_secret,
                                  const Measurement& owner) {
  return crypto::aes_cmac(ByteView(machine_secret.data(), machine_secret.size()),
                          ByteView(owner.data(), owner.size()));
}

}  // namespace sgxmig::sgx
