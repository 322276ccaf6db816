#include "migration/policy.h"

namespace sgxmig::migration {

Status MigrationPolicy::evaluate(
    const platform::MachineCredential& destination) const {
  if (!allowed_regions.empty()) {
    bool allowed = false;
    for (const auto& region : allowed_regions) {
      if (region == destination.region) allowed = true;
    }
    if (!allowed) return Status::kPolicyViolation;
  }
  for (const auto& address : denied_addresses) {
    if (address == destination.address) return Status::kPolicyViolation;
  }
  if (min_cpu_cores != 0 && destination.cpu_cores < min_cpu_cores) {
    return Status::kPolicyViolation;
  }
  return Status::kOk;
}

}  // namespace sgxmig::migration
