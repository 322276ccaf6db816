// Simplified reimplementation of Gu et al. [2] — the prior state of the
// art this paper improves on (source unavailable; reimplemented from the
// paper's §III-B description of it).
//
// Gu et al. migrate an enclave's DATA MEMORY: the source library performs
// remote attestation with an identical enclave on the destination,
// re-encrypts the memory image under the agreed key, and ships it out.
// After migration the source enclave is held in a perpetual spin lock via
// a "migrated" flag.  The paper's §III-B analysis turns on one detail the
// original leaves open — whether that flag is persisted:
//   * kVolatile:  flag lives in enclave memory only.  Restarting the
//     application clears it -> the fork attack of §III-B succeeds.
//   * kPersisted: flag sealed to disk.  Fork blocked — but the enclave can
//     NEVER migrate back to this machine (indistinguishable from a fork),
//     a restriction the Migration Enclave design removes.
// Neither variant migrates sealed data or monotonic counters.
#pragma once

#include <functional>

#include "sgx/enclave.h"

namespace sgxmig::baseline {

class GuMigrationLibrary {
 public:
  enum class FlagMode { kVolatile, kPersisted };

  GuMigrationLibrary(sgx::Enclave& host, FlagMode mode);

  using PersistCallback = std::function<void(ByteView sealed_flag)>;
  void set_persist_callback(PersistCallback callback) {
    persist_callback_ = std::move(callback);
  }

  /// Restores the library state on enclave start.  In kPersisted mode the
  /// application passes the stored flag blob (empty on first start); a
  /// restored "migrated" flag spin-locks the enclave.
  Status restore(ByteView sealed_flag_blob);

  /// True once this instance (or, in kPersisted mode, this machine's
  /// persisted state) has been migrated away: all work must stop.
  bool spin_locked() const { return migrated_; }

  /// Runs the whole migration: mutual remote attestation between the two
  /// enclave instances, identity check, re-encrypted memory transfer.
  /// On success the source is spin-locked (and the flag persisted in
  /// kPersisted mode) and `received` holds the memory image on the
  /// destination side.
  static Status migrate_memory(GuMigrationLibrary& source, ByteView memory,
                               GuMigrationLibrary& destination,
                               Bytes* received);

 private:
  Status persist_flag();

  sgx::Enclave& host_;
  FlagMode mode_;
  bool migrated_ = false;
  PersistCallback persist_callback_;
};

}  // namespace sgxmig::baseline
