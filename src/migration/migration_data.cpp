#include "migration/migration_data.h"

namespace sgxmig::migration {

size_t MigrationData::active_count() const {
  size_t n = 0;
  for (bool active : counters_active) {
    if (active) ++n;
  }
  return n;
}

}  // namespace sgxmig::migration
