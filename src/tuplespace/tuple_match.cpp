#include "tuplespace/tuple_match.h"

#include <cstring>

namespace agilla::ts {
namespace {

constexpr Fingerprint kArityMask = 0xF;
constexpr std::size_t kTypeShiftBase = 4;
constexpr std::size_t kTypeBits = 3;
constexpr Fingerprint kTypeMask = 0x7;
constexpr std::size_t kHashShift = 40;
constexpr Fingerprint kHashMask = Fingerprint{0xFFFFFF} << kHashShift;

constexpr Fingerprint type_shift(std::size_t i) {
  return kTypeShiftBase + kTypeBits * i;
}

/// 24-bit mix of one field's type + payload, positioned at kHashShift.
Fingerprint field_hash(const Value& v) {
  std::uint64_t x =
      (static_cast<std::uint64_t>(v.type()) << 32) | v.payload_bits();
  x *= 0x9E3779B97F4A7C15ULL;  // SplitMix64 finalizer constant
  return (x >> kHashShift) << kHashShift;
}

/// True when a template field of this type accepts tuple fields of exactly
/// one ValueType (so its 3-bit code can join the fingerprint mask).
constexpr bool pins_field_type(ValueType t) {
  // kReadingType accepts both kReading fields and kReadingType fields.
  return t != ValueType::kReadingType;
}

/// True when a template field of this type matches by value equality only
/// (so field 0's content hash can join the fingerprint mask).
constexpr bool pins_field_content(ValueType t) {
  return t != ValueType::kReadingType && t != ValueType::kTypeWildcard;
}

/// Template fields matched by plain equality whose compact encoding is
/// decoded back field for field, so byte equality can stand in for
/// decode-then-compare. kReadingType also accepts readings, kInvalid also
/// matches unknown type bytes (both decode as invalid), and kTypeWildcard
/// is lowered to a type-byte check.
constexpr bool byte_comparable(ValueType t) {
  switch (t) {
    case ValueType::kNumber:
    case ValueType::kString:
    case ValueType::kReading:
    case ValueType::kLocation:
    case ValueType::kAgentId:
      return true;
    default:
      return false;
  }
}

/// The ValueType Value::decode_compact yields for type byte `t`: unknown
/// bytes decode as kInvalid.
constexpr std::uint8_t decoded_type(std::uint8_t t) {
  return t <= static_cast<std::uint8_t>(ValueType::kReadingType) ? t : 0;
}

/// Bytes Value::decode_compact consumes for a field with type byte `t`.
constexpr std::uint8_t decoded_size(std::uint8_t t) {
  switch (static_cast<ValueType>(decoded_type(t))) {
    case ValueType::kLocation:
      return 5;
    case ValueType::kReading:
      return 4;
    case ValueType::kNumber:
    case ValueType::kString:
    case ValueType::kAgentId:
      return 3;
    case ValueType::kReadingType:
    case ValueType::kTypeWildcard:
      return 2;
    case ValueType::kInvalid:
      break;
  }
  return 1;
}

}  // namespace

Fingerprint fingerprint_of(const Tuple& tuple) {
  Fingerprint fp = tuple.arity() & kArityMask;
  for (std::size_t i = 0; i < tuple.arity(); ++i) {
    fp |= (static_cast<Fingerprint>(tuple.field(i).type()) & kTypeMask)
          << type_shift(i);
  }
  if (tuple.arity() > 0) {
    fp |= field_hash(tuple.field(0));
  }
  return fp;
}

std::optional<std::size_t> TupleRef::encoded_size() const {
  net::Reader r(bytes_);
  const std::uint8_t count = r.u8();
  if (!r.ok() || count > kMaxTupleFields) {
    return std::nullopt;
  }
  for (std::uint8_t i = 0; i < count; ++i) {
    Value::decode_compact(r);  // bounds-checked skip
  }
  if (!r.ok()) {
    return std::nullopt;
  }
  return bytes_.size() - r.remaining();
}

std::optional<Tuple> TupleRef::materialize() const {
  net::Reader r(bytes_);
  return Tuple::decode(r);
}

CompiledTemplate::CompiledTemplate(const Template& templ) : templ_(templ) {
  mask_ = kArityMask;
  want_ = templ_.arity() & kArityMask;
  for (std::size_t i = 0; i < templ_.arity(); ++i) {
    const Value& f = templ_.field(i);
    if (!pins_field_type(f.type())) {
      continue;
    }
    const ValueType required = f.type() == ValueType::kTypeWildcard
                                   ? f.wrapped_type()
                                   : f.type();
    mask_ |= kTypeMask << type_shift(i);
    want_ |= (static_cast<Fingerprint>(required) & kTypeMask)
             << type_shift(i);
  }
  if (templ_.arity() > 0 && pins_field_content(templ_.field(0).type())) {
    mask_ |= kHashMask;
    want_ |= field_hash(templ_.field(0));
  }

  // Lower the fields to byte-level steps. A record field decodes to a
  // value equal to a byte-comparable template field exactly when its
  // bytes equal that field's compact encoding: decode_compact reads the
  // type byte, then a fixed-width payload that maps one-to-one onto the
  // value. The round-trip check below excludes template values the
  // encoding cannot reproduce (say a reading whose sensor does not fit a
  // byte): no decoded field equals them, and the decode step says so.
  std::size_t used = 0;
  auto compare_bytes = [&](std::size_t len) {
    used += len;
    if (step_count_ > 0 && steps_[step_count_ - 1].kind == StepKind::kBytes) {
      steps_[step_count_ - 1].len =
          static_cast<std::uint8_t>(steps_[step_count_ - 1].len + len);
      return;
    }
    steps_[step_count_++] = Step{StepKind::kBytes,
                                 static_cast<std::uint8_t>(len), 0};
  };
  bytes_[0] = static_cast<std::uint8_t>(templ_.arity());
  compare_bytes(1);
  for (std::size_t i = 0; i < templ_.arity(); ++i) {
    const Value& f = templ_.field(i);
    if (f.type() == ValueType::kTypeWildcard) {
      const auto wanted = static_cast<std::uint8_t>(f.wrapped_type());
      steps_[step_count_++] =
          Step{StepKind::kTypeByte, decoded_size(wanted), wanted};
      continue;
    }
    const std::size_t len = f.encode_compact(bytes_.data() + used);
    net::Reader back(std::span<const std::uint8_t>(bytes_.data() + used, len));
    if (byte_comparable(f.type()) && Value::decode_compact(back) == f) {
      compare_bytes(len);
    } else {
      steps_[step_count_++] =
          Step{StepKind::kDecode, 0, static_cast<std::uint8_t>(i)};
    }
  }
}

bool CompiledTemplate::matches(TupleRef ref) const {
  const std::span<const std::uint8_t> rec = ref.bytes();
  const std::uint8_t* want = bytes_.data();
  std::size_t pos = 0;  // never past rec.size(): every step checks first
  for (std::size_t s = 0; s < step_count_; ++s) {
    const Step& step = steps_[s];
    switch (step.kind) {
      case StepKind::kBytes:
        if (rec.size() - pos < step.len ||
            std::memcmp(rec.data() + pos, want, step.len) != 0) {
          return false;
        }
        want += step.len;
        pos += step.len;
        break;
      case StepKind::kTypeByte:
        // The payload is skipped, not read: any value of the type matches.
        if (rec.size() - pos < step.len ||
            decoded_type(rec[pos]) != step.arg) {
          return false;
        }
        pos += step.len;
        break;
      case StepKind::kDecode: {
        net::Reader r(rec.subspan(pos));
        const Value v = Value::decode_compact(r);
        // A field truncated by the record's end fails Tuple::decode too.
        if (!r.ok() || !templ_.field(step.arg).matches(v)) {
          return false;
        }
        pos = rec.size() - r.remaining();
        break;
      }
    }
  }
  return true;
}

}  // namespace agilla::ts
