// Zero-copy tuple matching (the Sec. 3.2 "efficient tuple space
// implementations" future work): templates are compiled once into an
// integer fingerprint filter plus a byte-level program, and candidates are
// matched directly against their wire bytes with bounds checks. Scanning a
// store never heap-allocates; a Tuple is materialized only for an actual
// hit — and materializing is itself allocation-free (tuples store their
// fields inline, see tuple.h).
//
// Three pieces:
//  * Fingerprint      — a 64-bit summary of a stored tuple (arity, per-field
//                       type codes, a hash of field 0) computed once at
//                       insertion time;
//  * TupleRef         — a non-owning view of one encoded tuple record;
//  * CompiledTemplate — a template pre-lowered to (mask, want) over the
//                       fingerprint, so most candidates are rejected with a
//                       single integer compare, plus the compact encoding
//                       of its concrete fields, so the rest are matched by
//                       comparing record bytes — no field is decoded
//                       except against a reading-type template field.
//
// Equivalence contract (enforced by test_fuzz.cpp): for ANY byte string b
// and template t,
//     CompiledTemplate(t).matches(TupleRef(b))
//  == (Tuple::decode(b) succeeds && t.matches(*Tuple::decode(b))).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "tuplespace/tuple.h"

namespace agilla::ts {

/// 64-bit tuple summary. Layout:
///   bits  0..3   arity (stored tuples have <= kMaxTupleFields fields)
///   bits  4..39  3-bit ValueType code of field i at bits [4+3i, 7+3i)
///   bits 40..63  24-bit hash of field 0 (type + payload)
using Fingerprint = std::uint64_t;

/// Fingerprint of a concrete tuple; computed once per insertion.
[[nodiscard]] Fingerprint fingerprint_of(const Tuple& tuple);

/// Non-owning view of one encoded tuple record ([count u8][fields...]).
/// The bytes are NOT assumed well-formed: every accessor is bounds-checked
/// via net::Reader, so a TupleRef over truncated or mutated input never
/// reads out of range.
class TupleRef {
 public:
  constexpr TupleRef() = default;
  explicit constexpr TupleRef(std::span<const std::uint8_t> bytes)
      : bytes_(bytes) {}

  [[nodiscard]] std::span<const std::uint8_t> bytes() const { return bytes_; }

  /// Declared field count (first byte); 0 for an empty view.
  [[nodiscard]] std::size_t arity() const {
    return bytes_.empty() ? 0 : bytes_[0];
  }

  /// Walks the encoding. Returns the number of bytes one decoded tuple
  /// occupies (count byte + fields), or nullopt when the view truncates
  /// mid-field or declares more than kMaxTupleFields fields — exactly when
  /// Tuple::decode (materialize) would fail.
  [[nodiscard]] std::optional<std::size_t> encoded_size() const;

  /// Decodes into an owning Tuple; called once per matched candidate.
  /// Nullopt on malformed bytes.
  [[nodiscard]] std::optional<Tuple> materialize() const;

 private:
  std::span<const std::uint8_t> bytes_;
};

/// A Template lowered for repeated matching: the fields, a (mask, want)
/// pair over Fingerprint so stores reject most candidates with one
/// integer compare, and byte-level steps (the precompiled compact
/// encoding of the concrete fields) for the survivors. Compile once per
/// operation, match many candidates.
class CompiledTemplate {
 public:
  CompiledTemplate() = default;

  /// Deliberately implicit: call sites that probe once may pass a Template
  /// directly; hot paths compile explicitly and reuse the result.
  // NOLINTNEXTLINE(google-explicit-constructor)
  CompiledTemplate(const Template& templ);

  [[nodiscard]] std::size_t arity() const { return templ_.arity(); }
  [[nodiscard]] const Template& source() const { return templ_; }

  /// One-compare prefilter: true when `fp` proves the candidate cannot
  /// match (never true for a candidate that would match).
  [[nodiscard]] bool key_rejects(Fingerprint fp) const {
    return (fp & mask_) != want_;
  }

  /// Matches directly against wire bytes by comparing them with the
  /// precompiled encoding; never allocates and never reads past
  /// `ref.bytes()`.
  [[nodiscard]] bool matches(TupleRef ref) const;

  /// Matches an already-decoded tuple (reaction dispatch path).
  [[nodiscard]] bool matches(const Tuple& tuple) const {
    return templ_.matches(tuple);
  }

 private:
  /// How one stretch of the record is checked (see the constructor).
  enum class StepKind : std::uint8_t {
    kBytes,     ///< `len` record bytes equal the next `len` of bytes_
    kTypeByte,  ///< a field whose decoded type is `arg`; `len` bytes long
    kDecode,    ///< decode one field and apply template field `arg`
  };
  struct Step {
    StepKind kind = StepKind::kBytes;
    std::uint8_t len = 0;
    std::uint8_t arg = 0;
  };

  Template templ_;
  Fingerprint mask_ = 0;
  Fingerprint want_ = 0;
  /// Count byte, then the compact encoding of every byte-compared field.
  /// Sized for a hostile decoded template (kMaxTupleFields locations),
  /// which Template::decode admits past the 25-byte budget.
  std::array<std::uint8_t, 1 + kMaxTupleFields * Value::kMaxCompactSize>
      bytes_{};
  /// One step per field at most, plus the count byte; adjacent
  /// byte-compared stretches are merged into one step.
  std::array<Step, kMaxTupleFields + 1> steps_{};
  std::uint8_t step_count_ = 0;
};

}  // namespace agilla::ts
