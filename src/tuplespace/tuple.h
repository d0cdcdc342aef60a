// Tuples and templates (paper Sec. 2.2): a tuple is an ordered set of typed
// fields; a template is an ordered set of fields that may contain
// type-wildcards. "A template matches a tuple if they have the same number
// of fields, and each field in the tuple matches the corresponding field in
// the template."
//
// Both store their fields inline (the 25-byte wire budget bounds a tuple at
// kMaxTupleFields fields), so building, copying, and decoding them never
// heap-allocates — the tuple-space data plane moves plain values around.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>

#include "tuplespace/value.h"

namespace agilla::ts {

/// Maximum compact wire size of a stored tuple (paper Sec. 3.2: "a tuple
/// may contain up to 25 bytes worth of fields").
inline constexpr std::size_t kMaxTupleWireBytes = 25;

/// Most fields that budget admits for a buildable tuple/template: every
/// VALID field encodes to >= 2 bytes under a 1-byte count prefix
/// (1 + 12 * 2 = 25). Tuple and Template reserve exactly this many inline
/// slots. Hostile wire encodings can declare more fields in budget (a
/// kInvalid field is 1 byte), so decode_fields enforces this cap
/// explicitly — the inline slot count is a hard contract, not a corollary
/// of the byte budget.
inline constexpr std::size_t kMaxTupleFields = (kMaxTupleWireBytes - 1) / 2;

namespace detail {
using FieldArray = std::array<Value, kMaxTupleFields>;

std::size_t fields_wire_size(std::span<const Value> fields);
void encode_fields(net::Writer& w, std::span<const Value> fields);
/// Reads [count u8][fields...]; false when the stream truncates or the
/// count exceeds kMaxTupleFields (no such encoding fits the wire budget).
bool decode_fields(net::Reader& r, FieldArray& out, std::uint8_t& count);
std::string fields_to_string(std::span<const Value> fields);
}  // namespace detail

class Tuple {
 public:
  Tuple() = default;
  Tuple(std::initializer_list<Value> fields);

  /// Appends a field. Returns false (and leaves the tuple unchanged) if the
  /// field is not concrete or the tuple would exceed kMaxTupleWireBytes.
  bool add(const Value& field);

  [[nodiscard]] std::size_t arity() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] const Value& field(std::size_t i) const { return fields_[i]; }
  [[nodiscard]] std::span<const Value> fields() const {
    return {fields_.data(), count_};
  }

  /// Compact serialized size: 1 count byte + fields.
  [[nodiscard]] std::size_t wire_size() const;

  void encode(net::Writer& w) const;
  /// Writes the wire_size() encoded bytes to `out` without allocating
  /// (the tuple stores' insert path); returns wire_size().
  std::size_t encode(std::uint8_t* out) const;
  static std::optional<Tuple> decode(net::Reader& r);

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Tuple& a, const Tuple& b) = default;

 private:
  detail::FieldArray fields_{};
  std::uint8_t count_ = 0;
};

class Template {
 public:
  Template() = default;
  Template(std::initializer_list<Value> fields);

  /// Appends a field (concrete or wildcard). Returns false if the template
  /// would exceed kMaxTupleWireBytes.
  bool add(const Value& field);

  [[nodiscard]] std::size_t arity() const { return count_; }
  [[nodiscard]] const Value& field(std::size_t i) const { return fields_[i]; }
  [[nodiscard]] std::span<const Value> fields() const {
    return {fields_.data(), count_};
  }

  [[nodiscard]] bool matches(const Tuple& tuple) const;

  [[nodiscard]] std::size_t wire_size() const;
  void encode(net::Writer& w) const;
  static std::optional<Template> decode(net::Reader& r);

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Template& a, const Template& b) = default;

 private:
  detail::FieldArray fields_{};
  std::uint8_t count_ = 0;
};

}  // namespace agilla::ts
