#include "migration/library_state.h"

namespace sgxmig::migration {

size_t LibraryState::active_count() const {
  size_t n = 0;
  for (bool active : counters_active) {
    if (active) ++n;
  }
  return n;
}

size_t LibraryState::free_slot() const {
  for (size_t i = 0; i < counters_active.size(); ++i) {
    if (!counters_active[i]) return i;
  }
  return kMaxCounters;
}

}  // namespace sgxmig::migration
