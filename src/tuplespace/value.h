// The tagged value type shared by tuple fields, templates, the VM operand
// stack, and the agent heap (paper Sec. 2.2: "each field has a type and
// value. Types may include integers, strings, locations, and sensor
// readings").
//
// Strings are packed 3 characters x 5 bits into 16 bits, as in the real
// Agilla (the paper's agents use 3-letter strings like "fir").
//
// Two wire encodings exist:
//  * compact  — 1 type byte + minimal payload; used inside the tuple store
//               (600-byte budget, 25-byte tuples) and remote-op messages;
//  * padded   — exactly 6 bytes; used by migration messages so their sizes
//               match paper Fig. 5 (heap 32 B, stack 30 B).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "net/serialize.h"
#include "sim/environment.h"
#include "sim/types.h"

namespace agilla::ts {

enum class ValueType : std::uint8_t {
  kInvalid = 0,
  kNumber = 1,       ///< 16-bit signed integer
  kString = 2,       ///< packed 3-char string
  kTypeWildcard = 3, ///< template-only: matches any field of wrapped type
  kReading = 4,      ///< sensor type + 16-bit value
  kLocation = 5,     ///< (x, y)
  kAgentId = 6,      ///< 16-bit agent identifier
  kReadingType = 7,  ///< sensor-type designator (sense operand; template
                     ///< field matching readings of that sensor)
};

[[nodiscard]] const char* to_string(ValueType t);

/// Packs the first 3 chars of `s` (case-insensitive a-z) into 15 bits.
std::uint16_t pack_string(std::string_view s);
std::string unpack_string(std::uint16_t packed);

class Value {
 public:
  /// Fixed serialized footprint of the padded (migration) encoding.
  static constexpr std::size_t kPaddedWireSize = 6;

  constexpr Value() = default;

  static Value number(std::int16_t v);
  static Value string(std::string_view s);
  static Value packed_string(std::uint16_t packed);
  static Value type_wildcard(ValueType wrapped);
  static Value reading(sim::SensorType sensor, std::int16_t v);
  static Value location(sim::Location loc);
  static Value agent_id(std::uint16_t id);
  static Value reading_type(sim::SensorType sensor);

  [[nodiscard]] ValueType type() const { return type_; }
  [[nodiscard]] bool valid() const { return type_ != ValueType::kInvalid; }

  /// Numeric view: kNumber -> value, kReading -> reading value, others 0.
  [[nodiscard]] std::int16_t as_number() const;
  [[nodiscard]] std::uint16_t as_packed_string() const;
  [[nodiscard]] sim::Location as_location() const;
  [[nodiscard]] std::uint16_t as_agent_id() const;
  [[nodiscard]] sim::SensorType sensor() const;
  [[nodiscard]] ValueType wrapped_type() const;

  /// Template-field semantics: does this (possibly wildcard) field accept
  /// the concrete field `v`?
  [[nodiscard]] bool matches(const Value& v) const;

  /// Both payload halves as one word — the fingerprint hash input
  /// (tuple_match.h). Equal values always produce equal bits.
  [[nodiscard]] std::uint32_t payload_bits() const {
    return (static_cast<std::uint32_t>(static_cast<std::uint16_t>(a_)) << 16) |
           static_cast<std::uint16_t>(b_);
  }

  /// True for field types that can appear in a stored tuple.
  [[nodiscard]] bool concrete() const;

  /// Largest compact encoding: a location (type + x + y).
  static constexpr std::size_t kMaxCompactSize = 5;

  [[nodiscard]] std::size_t compact_size() const;  // includes type byte
  /// Writes the compact encoding to `out`, which has room for
  /// compact_size() bytes, and returns that size. The one compact
  /// encoder: the Writer overload and the tuple stores build on it.
  std::size_t encode_compact(std::uint8_t* out) const;
  void encode_compact(net::Writer& w) const;
  static Value decode_compact(net::Reader& r);

  void encode_padded(net::Writer& w) const;
  static Value decode_padded(net::Reader& r);

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Value& a, const Value& b) = default;

 private:
  Value(ValueType type, std::int16_t a, std::int16_t b)
      : type_(type), a_(a), b_(b) {}

  ValueType type_ = ValueType::kInvalid;
  std::int16_t a_ = 0;  ///< number / packed string / x / wrapped type / id
  std::int16_t b_ = 0;  ///< y / sensor type
};

}  // namespace agilla::ts
