// Binary serialization for protocol messages and persisted blobs.
//
// Encoding rules: integers are little-endian; variable-length byte strings
// are length-prefixed with a u32.  `BinaryReader` uses a sticky failure
// flag: any out-of-bounds read marks the reader failed and all subsequent
// reads return zero values, so callers validate once via `ok()` after
// decoding a whole message.  This is the recommended pattern for parsing
// adversary-controlled input without exceptions.
//
// One layout per format.  Each record lists its fields once, in wire
// order, in a `layout` template that serves both directions:
//
//   template <class Io, class Self>
//   static void layout(Io& io, Self& m) {
//     io.u64(m.request_nonce);
//     io.str(m.destination_address, 256);
//     io.require(m.round < kLimit);
//   }
//
// Run on a `BinaryWriter` (Self = const T) it encodes; run on a
// `BinaryReader` (Self = T) it decodes in place.  The calls have the same
// names on both classes; length caps, count caps, magics and `require`
// checks only act while reading.  Deriving from `Record<T>` generates the
// public `serialize()` / `deserialize()` pair from the layout, and the
// `nested`, `list`, `map` and `keyed` helpers compose layouts.  Where one
// field needs direction-specific code, `Io::kReading` tells the two apart.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

#include "support/bytes.h"
#include "support/status.h"

namespace sgxmig {

class BinaryWriter {
 public:
  static constexpr bool kReading = false;

  void u8(uint8_t v);
  void u16(uint16_t v);
  void u32(uint32_t v);
  void u64(uint64_t v);
  void boolean(bool v);

  /// Enum fields travel as their wire integer.
  template <class E>
    requires std::is_enum_v<E>
  void u8(E e) {
    u8(static_cast<uint8_t>(e));
  }
  template <class E>
    requires std::is_enum_v<E>
  void u32(E e) {
    u32(static_cast<uint32_t>(e));
  }
  /// An enum whose decoded value must lie in [first, last], as its
  /// underlying integer.
  template <class E>
  void enumeration(E e, E /*first*/, E /*last*/) {
    write_int(static_cast<std::underlying_type_t<E>>(e));
  }

  /// Length-prefixed byte string (u32 length); `max_len` binds the reader.
  void bytes(ByteView v, size_t max_len = 0);
  /// Length-prefixed UTF-8 string.
  void str(std::string_view v, size_t max_len = 0);
  /// Raw bytes with no length prefix (fixed-width fields).
  void raw(ByteView v);
  /// A format's magic string, length-prefixed like `str`.
  void magic(std::string_view m, size_t /*max_len*/ = 64) { str(m); }

  template <size_t N>
  void fixed(const std::array<uint8_t, N>& a) {
    raw(ByteView(a.data(), a.size()));
  }

  /// Decoder-side validation; nothing to check while encoding.
  void require(bool /*cond*/) {}

  /// A length-prefixed record encoded in place (no temporary buffer).
  template <class T>
  void nested(const T& value, size_t /*max_len*/) {
    const size_t at = buffer_.size();
    u32(0);
    T::layout(*this, value);
    store_le32(buffer_.data() + at,
               static_cast<uint32_t>(buffer_.size() - at - 4));
  }

  /// A u32 count, then `each(io, item)` per item (default: the item's
  /// layout); `max_count` binds the reader.
  template <class C, class F>
  void list(const C& items, size_t /*max_count*/, F each) {
    u32(static_cast<uint32_t>(items.size()));
    for (const auto& item : items) each(*this, item);
  }
  template <class C>
  void list(const C& items, size_t max_count) {
    list(items, max_count, [](BinaryWriter& w, const auto& item) {
      std::decay_t<decltype(item)>::layout(w, item);
    });
  }

  /// A u32 count, then `each(io, key, value)` per entry that `keep`s.
  template <class M, class Keep, class F>
  void map_if(const M& m, Keep keep, F each) {
    uint32_t count = 0;
    for (const auto& entry : m) count += keep(entry.second) ? 1 : 0;
    u32(count);
    for (const auto& [key, value] : m) {
      if (keep(value)) each(*this, key, value);
    }
  }
  template <class M, class F>
  void map(const M& m, F each) {
    u32(static_cast<uint32_t>(m.size()));
    for (const auto& [key, value] : m) each(*this, key, value);
  }
  /// A u32 count, then each value's layout; the reader keys every value
  /// by its own `key` member.
  template <class M, class K>
  void keyed(const M& m, size_t /*max_count*/, K /*key*/) {
    u32(static_cast<uint32_t>(m.size()));
    for (const auto& entry : m) {
      std::decay_t<decltype(entry.second)>::layout(*this, entry.second);
    }
  }

  const Bytes& data() const { return buffer_; }
  Bytes take() { return std::move(buffer_); }

 private:
  void write_int(uint8_t v) { u8(v); }
  void write_int(uint16_t v) { u16(v); }

  Bytes buffer_;
};

class BinaryReader {
 public:
  static constexpr bool kReading = true;

  explicit BinaryReader(ByteView data) : data_(data) {}

  uint8_t u8();
  uint16_t u16();
  uint32_t u32();
  uint64_t u64();
  bool boolean();

  /// Length-prefixed byte string; enforces `max_len` to bound allocations
  /// driven by adversarial length fields.
  Bytes bytes(size_t max_len = kDefaultMaxLen);
  std::string str(size_t max_len = kDefaultMaxLen);

  template <size_t N>
  std::array<uint8_t, N> fixed() {
    std::array<uint8_t, N> out{};
    if (!take(N)) return out;
    for (size_t i = 0; i < N; ++i) out[i] = data_[pos_ - N + i];
    return out;
  }

  // ----- in-place reads: the decoding half of a `layout` -----

  void u8(uint8_t& v) { v = u8(); }
  void u16(uint16_t& v) { v = u16(); }
  void u32(uint32_t& v) { v = u32(); }
  void u64(uint64_t& v) { v = u64(); }
  void boolean(bool& v) { v = boolean(); }
  template <class E>
    requires std::is_enum_v<E>
  void u8(E& e) {
    e = static_cast<E>(u8());
  }
  template <class E>
    requires std::is_enum_v<E>
  void u32(E& e) {
    e = static_cast<E>(u32());
  }
  template <class E>
  void enumeration(E& e, E first, E last) {
    using U = std::underlying_type_t<E>;
    U raw_value{};
    read_int(raw_value);
    require(raw_value >= static_cast<U>(first) &&
            raw_value <= static_cast<U>(last));
    e = static_cast<E>(raw_value);
  }
  void bytes(Bytes& out, size_t max_len) { out = bytes(max_len); }
  void str(std::string& out, size_t max_len) { out = str(max_len); }
  void magic(std::string_view m, size_t max_len = 64) {
    require(str(max_len) == m);
  }
  template <size_t N>
  void fixed(std::array<uint8_t, N>& a) {
    a = fixed<N>();
  }

  /// Fails the reader unless `cond` holds.
  void require(bool cond) {
    if (!cond) failed_ = true;
  }

  template <class T>
  void nested(T& value, size_t max_len) {
    const uint32_t len = u32();
    if (failed_ || len > max_len || data_.size() - pos_ < len) {
      failed_ = true;
      return;
    }
    BinaryReader inner(data_.subspan(pos_, len));
    T::layout(inner, value);
    require(inner.done());
    pos_ += len;
  }

  template <class C, class F>
  void list(C& items, size_t max_count, F each) {
    const uint32_t count = u32();
    require(count <= max_count);
    items.clear();
    for (uint32_t i = 0; i < count && ok(); ++i) {
      each(*this, items.emplace_back());
    }
  }
  template <class C>
  void list(C& items, size_t max_count) {
    list(items, max_count, [](BinaryReader& r, auto& item) {
      std::decay_t<decltype(item)>::layout(r, item);
    });
  }

  template <class M, class Keep, class F>
  void map_if(M& m, Keep /*keep*/, F each) {
    const uint32_t count = u32();
    for (uint32_t i = 0; i < count && ok(); ++i) {
      typename M::key_type key{};
      typename M::mapped_type value{};
      each(*this, key, value);
      m.insert_or_assign(std::move(key), std::move(value));
    }
  }
  template <class M, class F>
  void map(M& m, F each) {
    map_if(m, nullptr, each);
  }
  template <class M, class K>
  void keyed(M& m, size_t max_count, K key) {
    const uint32_t count = u32();
    require(count <= max_count);
    for (uint32_t i = 0; i < count && ok(); ++i) {
      typename M::mapped_type value{};
      M::mapped_type::layout(*this, value);
      if (ok()) m[value.*key] = std::move(value);
    }
  }

  /// True iff no read so far ran past the end of the buffer.
  bool ok() const { return !failed_; }
  /// True iff the whole buffer was consumed and no read failed.
  bool done() const { return !failed_ && pos_ == data_.size(); }
  size_t remaining() const { return failed_ ? 0 : data_.size() - pos_; }

  static constexpr size_t kDefaultMaxLen = 1u << 30;

 private:
  bool take(size_t n);
  void read_int(uint8_t& v) { v = u8(); }
  void read_int(uint16_t& v) { v = u16(); }

  ByteView data_;
  size_t pos_ = 0;
  bool failed_ = false;
};

/// Generates a record's public codec from `T::layout`: `serialize()` runs
/// the layout on a writer; `deserialize()` runs it on a reader over the
/// whole input and fails with `kError` unless every byte was consumed.
template <class T, Status kError = Status::kTampered>
struct Record {
  Bytes serialize() const {
    BinaryWriter w;
    T::layout(w, static_cast<const T&>(*this));
    return w.take();
  }
  static Result<T> deserialize(ByteView bytes) {
    BinaryReader r(bytes);
    T value;
    T::layout(r, value);
    if (!r.done()) return kError;
    return value;
  }
  bool operator==(const Record&) const = default;
};

}  // namespace sgxmig
