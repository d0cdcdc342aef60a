#include "tuplespace/tuple.h"

#include <sstream>

namespace agilla::ts {
namespace detail {

std::size_t fields_wire_size(std::span<const Value> fields) {
  std::size_t total = 1;  // count byte
  for (const Value& f : fields) {
    total += f.compact_size();
  }
  return total;
}

void encode_fields(net::Writer& w, std::span<const Value> fields) {
  w.u8(static_cast<std::uint8_t>(fields.size()));
  for (const Value& f : fields) {
    f.encode_compact(w);
  }
}

bool decode_fields(net::Reader& r, FieldArray& out, std::uint8_t& count) {
  const std::uint8_t n = r.u8();
  if (!r.ok() || n > kMaxTupleFields) {
    return false;
  }
  for (std::uint8_t i = 0; i < n; ++i) {
    out[i] = Value::decode_compact(r);
  }
  if (!r.ok()) {
    return false;
  }
  count = n;
  return true;
}

std::string fields_to_string(std::span<const Value> fields) {
  std::ostringstream os;
  os << "<";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) {
      os << ", ";
    }
    os << fields[i].to_string();
  }
  os << ">";
  return os.str();
}

}  // namespace detail

Tuple::Tuple(std::initializer_list<Value> fields) {
  for (const Value& f : fields) {
    add(f);
  }
}

bool Tuple::add(const Value& field) {
  if (!field.concrete() || field.type() == ValueType::kTypeWildcard) {
    return false;
  }
  if (count_ >= kMaxTupleFields ||
      wire_size() + field.compact_size() > kMaxTupleWireBytes) {
    return false;
  }
  fields_[count_++] = field;
  return true;
}

std::size_t Tuple::wire_size() const {
  return detail::fields_wire_size(fields());
}

void Tuple::encode(net::Writer& w) const {
  detail::encode_fields(w, fields());
}

std::size_t Tuple::encode(std::uint8_t* out) const {
  out[0] = count_;
  std::size_t n = 1;
  for (const Value& f : fields()) {
    n += f.encode_compact(out + n);
  }
  return n;
}

std::optional<Tuple> Tuple::decode(net::Reader& r) {
  Tuple t;
  if (!detail::decode_fields(r, t.fields_, t.count_)) {
    return std::nullopt;
  }
  return t;
}

std::string Tuple::to_string() const {
  return detail::fields_to_string(fields());
}

Template::Template(std::initializer_list<Value> fields) {
  for (const Value& f : fields) {
    add(f);
  }
}

bool Template::add(const Value& field) {
  if (!field.valid()) {
    return false;
  }
  if (count_ >= kMaxTupleFields ||
      wire_size() + field.compact_size() > kMaxTupleWireBytes) {
    return false;
  }
  fields_[count_++] = field;
  return true;
}

bool Template::matches(const Tuple& tuple) const {
  if (tuple.arity() != count_) {
    return false;
  }
  for (std::size_t i = 0; i < count_; ++i) {
    if (!fields_[i].matches(tuple.field(i))) {
      return false;
    }
  }
  return true;
}

std::size_t Template::wire_size() const {
  return detail::fields_wire_size(fields());
}

void Template::encode(net::Writer& w) const {
  detail::encode_fields(w, fields());
}

std::optional<Template> Template::decode(net::Reader& r) {
  Template t;
  if (!detail::decode_fields(r, t.fields_, t.count_)) {
    return std::nullopt;
  }
  return t;
}

std::string Template::to_string() const {
  return detail::fields_to_string(fields());
}

}  // namespace agilla::ts
