#include "tuplespace/store.h"

#include <cassert>
#include <cstring>

namespace agilla::ts {

LinearTupleStore::LinearTupleStore(std::size_t capacity_bytes)
    : buffer_(capacity_bytes, 0) {}

bool LinearTupleStore::insert(const Tuple& tuple) {
  last_op_bytes_ = 0;
  if (tuple.empty()) {
    return false;
  }
  const std::size_t size = tuple.wire_size();
  if (size > kMaxTupleWireBytes) {
    return false;
  }
  if (used_ + 1 + size > buffer_.size()) {
    return false;
  }
  // Encoded in place: [len u8][tuple bytes] straight into the buffer.
  const std::size_t record = 1 + size;
  buffer_[used_] = static_cast<std::uint8_t>(size);
  tuple.encode(buffer_.data() + used_ + 1);
  used_ += record;
  records_.push_back(
      RecordMeta{fingerprint_of(tuple), static_cast<std::uint8_t>(record)});
  last_op_bytes_ = record;
  return true;
}

TupleRef LinearTupleStore::record_ref(std::size_t offset,
                                      std::size_t size) const {
  return TupleRef(
      std::span<const std::uint8_t>(buffer_.data() + offset + 1, size - 1));
}

std::optional<LinearTupleStore::Found> LinearTupleStore::find(
    const CompiledTemplate& templ) const {
  std::size_t offset = 0;
  std::size_t scanned = 0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const RecordMeta& meta = records_[i];
    assert(offset + meta.size <= used_);
    scanned += meta.size;
    if (!templ.key_rejects(meta.fp) &&
        templ.matches(record_ref(offset, meta.size))) {
      last_op_bytes_ = scanned;
      return Found{i, offset, meta.size};
    }
    offset += meta.size;
  }
  last_op_bytes_ = scanned;
  return std::nullopt;
}

std::optional<Tuple> LinearTupleStore::take(const CompiledTemplate& templ) {
  const auto found = find(templ);
  if (!found.has_value()) {
    return std::nullopt;
  }
  std::optional<Tuple> out = record_ref(found->offset, found->size)
                                 .materialize();
  assert(out.has_value());  // insert only writes well-formed records
  // Shift all following tuples forward (paper Sec. 3.2).
  const std::size_t tail_start = found->offset + found->size;
  const std::size_t tail_len = used_ - tail_start;
  if (tail_len > 0) {
    std::memmove(buffer_.data() + found->offset, buffer_.data() + tail_start,
                 tail_len);
    last_op_bytes_ += tail_len;
  }
  used_ -= found->size;
  records_.erase(records_.begin() +
                 static_cast<std::ptrdiff_t>(found->index));
  return out;
}

std::optional<Tuple> LinearTupleStore::read(
    const CompiledTemplate& templ) const {
  const auto found = find(templ);
  if (!found.has_value()) {
    return std::nullopt;
  }
  return record_ref(found->offset, found->size).materialize();
}

std::size_t LinearTupleStore::count_matching(
    const CompiledTemplate& templ) const {
  std::size_t count = 0;
  std::size_t offset = 0;
  std::size_t scanned = 0;
  for (const RecordMeta& meta : records_) {
    scanned += meta.size;
    if (!templ.key_rejects(meta.fp) &&
        templ.matches(record_ref(offset, meta.size))) {
      ++count;
    }
    offset += meta.size;
  }
  last_op_bytes_ = scanned;
  return count;
}

std::vector<Tuple> LinearTupleStore::snapshot() const {
  std::vector<Tuple> out;
  out.reserve(records_.size());
  std::size_t offset = 0;
  for (const RecordMeta& meta : records_) {
    auto tuple = record_ref(offset, meta.size).materialize();
    if (tuple.has_value()) {
      out.push_back(std::move(*tuple));
    }
    offset += meta.size;
  }
  return out;
}

void LinearTupleStore::clear() {
  used_ = 0;
  records_.clear();
  last_op_bytes_ = 0;
}

}  // namespace agilla::ts
