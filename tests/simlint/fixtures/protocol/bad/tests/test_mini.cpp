// Mentions every enumerator except the seeded protocol-untested one
// (the "secret" response type).  kOrphan is mentioned so the
// missing-handler finding stays the only one attached to it.
#include "../src/migration/protocol.h"

int coverage() {
  int sum = 0;
  sum += static_cast<int>(MeMsgType::kPing);
  sum += static_cast<int>(MeMsgType::kTransfer);
  sum += static_cast<int>(MeMsgType::kOrphan);
  sum += static_cast<int>(LibMsgType::kMigrate);
  sum += static_cast<int>(LibMsgType::kQuery);
  sum += static_cast<int>(LibMsgType::kAck);
  sum += static_cast<int>(LibMsgType::kIgnored);
  return sum;
}

// The WireGolden table names Pinned but not Unpinned.
int wire_golden_table() {
  return static_cast<int>(sizeof(Pinned));
}
