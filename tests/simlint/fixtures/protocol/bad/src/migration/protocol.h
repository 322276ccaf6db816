// Mini protocol header with one seeded violation per protocol rule.
#pragma once
#include <cstdint>

enum class MeMsgType : uint8_t {
  kPing = 1,
  kTransfer = 2,
  kOrphan = 3,  // seeded: protocol-missing-handler (no case in dispatch)
};

enum class LibMsgType : uint8_t {
  // requests (ML -> ME)
  kMigrate = 1,
  kQuery = 2,
  // responses (ME -> ML)
  kAck = 3,
  kIgnored = 4,  // seeded: protocol-consume (library never inspects it)
  kSecret = 5,   // seeded: protocol-untested (no mention under tests/)
};

// Byte formats: one pinned by the WireGolden table, one not.
struct Pinned {
  uint64_t id = 0;
  template <class Io, class Self>
  static void layout(Io& io, Self& m) { io.u64(m.id); }
};

struct Unpinned {  // seeded: protocol-record-golden (no WireGolden row)
  uint64_t id = 0;
  template <class Io, class Self>
  static void layout(Io& io, Self& m) { io.u64(m.id); }
};
