// The Migration Library's persistent internals — paper Table II.
//
//   Name             Type               Description
//   frozen           uint8              Freeze flag for migration
//   counters active  bool[256]          Shows used counters
//   counter uuids    SGX counter[256]   UUIDs of the SGX counters
//   counter offsets  uint32[256]        Offsets of the counters
//   MSK              128-bit key        Used by migratable seal
//
// The library seals this buffer (with the host enclave's standard sealing
// key) and hands it to the untrusted application for storage; on every
// enclave start the application passes it back to migration_init().  If
// `frozen` is set — the enclave was migrated away — the library refuses to
// operate (§VI-B "Persistent data").
#pragma once

#include <array>

#include "migration/migration_data.h"
#include "sgx/pse.h"
#include "support/bytes.h"
#include "support/serde.h"
#include "support/status.h"

namespace sgxmig::migration {

struct LibraryState : Record<LibraryState> {
  uint8_t frozen = 0;
  std::array<bool, kMaxCounters> counters_active{};
  std::array<sgx::CounterUuid, kMaxCounters> counter_uuids{};
  std::array<uint32_t, kMaxCounters> counter_offsets{};
  sgx::Key128 msk{};

  // ----- epoch guard (live-transfer capability, paper-plus) -----
  //
  // One extra hardware counter whose CURRENT value is recorded in every
  // sealed buffer.  Restore refuses a buffer whose recorded value lags the
  // hardware (kMigrationFrozen): ONE increment at migration_finalize
  // invalidates every previously sealed Table II in constant time, which
  // is what lets the per-counter hardware destroys run AFTER the
  // destination is released instead of inside the freeze window.  Created
  // at init only when the library is constructed live-transfer capable;
  // legacy enclaves (epoch_active == 0) keep the paper's exact semantics.
  uint8_t epoch_active = 0;
  sgx::CounterUuid epoch_uuid{};
  uint32_t epoch_value = 0;  // hardware value this buffer was sealed under

  /// Written as v2; v1 buffers (sealed before the epoch guard existed)
  /// restore with the guard inactive — exactly the paper's protection.
  template <class Io, class Self>
  static void layout(Io& io, Self& s) {
    std::string magic = "SGXMIG-LIBSTATE-v2";
    io.str(magic, 64);
    const bool v2 = magic == "SGXMIG-LIBSTATE-v2";
    io.require(v2 || magic == "SGXMIG-LIBSTATE-v1");
    io.u8(s.frozen);
    for (auto& active : s.counters_active) io.boolean(active);
    for (auto& uuid : s.counter_uuids) sgx::CounterUuid::layout(io, uuid);
    for (auto& offset : s.counter_offsets) io.u32(offset);
    io.fixed(s.msk);
    if (!v2) return;
    io.u8(s.epoch_active);
    sgx::CounterUuid::layout(io, s.epoch_uuid);
    io.u32(s.epoch_value);
  }

  size_t active_count() const;
  /// Lowest free slot, or kMaxCounters when full.
  size_t free_slot() const;
};

}  // namespace sgxmig::migration
