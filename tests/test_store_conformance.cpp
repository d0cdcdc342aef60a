// Cross-backend conformance: the same operation sequence driven through
// StoreKind::kLinear and StoreKind::kIndexed via the make_store() seam must
// produce identical observable results, and each backend must honour the
// last_op_bytes_touched() contract documented in store_interface.h
// (insert = record bytes written; probes = record bytes of every candidate
// scanned; take additionally counts bytes moved).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/rng.h"
#include "tuplespace/store_interface.h"

namespace agilla::ts {
namespace {

/// Record bytes of one stored tuple: 1 length byte + encoded fields.
std::size_t record_bytes(const Tuple& t) { return 1 + t.wire_size(); }

Tuple keyed(const char* tag, std::int16_t n) {
  return Tuple{Value::string(tag), Value::number(n)};
}

TEST(StoreConformance, ScriptedSequenceAgreesAcrossBackends) {
  const auto linear = make_store(StoreKind::kLinear, 600);
  const auto indexed = make_store(StoreKind::kIndexed, 600);

  const auto both = [&](auto&& op) {
    op(*linear);
    op(*indexed);
  };

  // Inserts of mixed arity, a read, interleaved takes, a count, a clear,
  // and a refill — one scripted pass over the whole TupleStore surface.
  for (std::int16_t i = 0; i < 8; ++i) {
    both([&](TupleStore& s) { ASSERT_TRUE(s.insert(keyed("fil", i))); });
    both([&](TupleStore& s) {
      ASSERT_TRUE(s.insert(Tuple{Value::number(i)}));
    });
  }
  ASSERT_EQ(linear->tuple_count(), indexed->tuple_count());
  ASSERT_EQ(linear->used_bytes(), indexed->used_bytes());

  const CompiledTemplate fil3(Template{Value::string("fil"),
                                       Value::number(3)});
  ASSERT_EQ(linear->read(fil3), indexed->read(fil3));
  ASSERT_EQ(linear->take(fil3), indexed->take(fil3));
  ASSERT_EQ(linear->take(fil3), std::nullopt);
  ASSERT_EQ(indexed->take(fil3), std::nullopt);

  const CompiledTemplate any_num(
      Template{Value::type_wildcard(ValueType::kNumber)});
  ASSERT_EQ(linear->count_matching(any_num), 8u);
  ASSERT_EQ(indexed->count_matching(any_num), 8u);

  const auto snap_l = linear->snapshot();
  const auto snap_i = indexed->snapshot();
  ASSERT_EQ(snap_l, snap_i);

  both([](TupleStore& s) { s.clear(); });
  ASSERT_EQ(linear->tuple_count(), 0u);
  ASSERT_EQ(indexed->used_bytes(), 0u);
  both([&](TupleStore& s) { ASSERT_TRUE(s.insert(keyed("new", 1))); });
  ASSERT_EQ(linear->read(CompiledTemplate(Template{
                Value::string("new"), Value::type_wildcard(
                                          ValueType::kNumber)})),
            indexed->read(CompiledTemplate(Template{
                Value::string("new"),
                Value::type_wildcard(ValueType::kNumber)})));
}

/// last_op_bytes_touched() after each step of a script over every
/// concrete field type: inserts, hit and miss probes through exact,
/// type-wildcard and reading-type templates, takes from the front, middle
/// and back, and counts.
std::vector<std::size_t> scripted_bytes_touched(StoreKind kind) {
  const auto store = make_store(kind, 600);
  std::vector<std::size_t> trace;
  const auto note = [&] { trace.push_back(store->last_op_bytes_touched()); };
  const auto temp = sim::SensorType::kTemperature;
  const Tuple tuples[] = {
      keyed("fil", 1),
      Tuple{Value::number(7)},
      Tuple{Value::location({2, 3}), Value::agent_id(9)},
      Tuple{Value::reading(temp, 21), Value::string("tmp")},
      Tuple{Value::reading_type(temp), Value::number(-4)},
      keyed("fil", 2),
      Tuple{Value::string("big"), Value::location({1, 1}),
            Value::location({4, 4}), Value::reading(temp, 5),
            Value::number(3)},
      keyed("key", 3),
  };
  for (const Tuple& t : tuples) {
    store->insert(t);
    note();
  }
  const auto num = Value::type_wildcard(ValueType::kNumber);
  const CompiledTemplate probes[] = {
      Template{Value::string("fil"), num},                // hit, first
      Template{Value::string("key"), Value::number(3)},   // hit, last
      Template{Value::string("mis"), num},                // miss
      Template{Value::reading_type(temp), Value::string("tmp")},
      Template{Value::reading_type(temp), num},           // reading type
      Template{Value::type_wildcard(ValueType::kLocation),
               Value::agent_id(9)},
      Template{num},
      Template{Value::string("big"),
               Value::type_wildcard(ValueType::kLocation),
               Value::location({4, 4}), Value::reading(temp, 5), num},
  };
  for (const CompiledTemplate& p : probes) {
    (void)store->read(p);
    note();
    (void)store->count_matching(p);
    note();
  }
  for (const CompiledTemplate& p : probes) {
    (void)store->take(p);
    note();
  }
  store->insert(keyed("new", 1));
  note();
  (void)store->take(probes[0]);
  note();
  return trace;
}

TEST(StoreConformance, BytesTouchedArePinned) {
  // The VmCostModel charge of every tuple op derives from these values,
  // so no change to how the stores encode or match may move them.
  // Rows: the eight inserts; read then count for each probe; a take for
  // each probe; the refill insert and its take.
  const std::vector<std::size_t> linear = {
      8,  5,  10, 9,  7,  8,  22, 8,   //
      8,  77, 77, 77, 77, 77, 32, 77,  //
      39, 77, 23, 77, 13, 77, 69, 77,  //
      77, 69, 61, 61, 52, 45, 35, 30,  //
      8,  16};
  const std::vector<std::size_t> indexed = {
      8,  5,  10, 9,  7,  8,  22, 8,   //
      8,  50, 50, 50, 50, 50, 27, 50,  //
      34, 50, 18, 50, 5,  5,  22, 22,  //
      8,  42, 34, 19, 17, 10, 5,  22,  //
      8,  8};
  EXPECT_EQ(scripted_bytes_touched(StoreKind::kLinear), linear);
  EXPECT_EQ(scripted_bytes_touched(StoreKind::kIndexed), indexed);
}

TEST(StoreConformance, InsertChargesRecordBytesWritten) {
  const Tuple t = keyed("fil", 1);
  for (const StoreKind kind : {StoreKind::kLinear, StoreKind::kIndexed}) {
    const auto store = make_store(kind, 600);
    ASSERT_TRUE(store->insert(t));
    EXPECT_EQ(store->last_op_bytes_touched(), record_bytes(t))
        << to_string(kind);
    // A rejected insert (oversized for remaining capacity) charges 0.
    const auto tiny = make_store(kind, record_bytes(t));
    ASSERT_TRUE(tiny->insert(t));
    ASSERT_FALSE(tiny->insert(t));
    EXPECT_EQ(tiny->last_op_bytes_touched(), 0u) << to_string(kind);
  }
}

TEST(StoreConformance, ProbesChargeEveryCandidateScanned) {
  // All tuples share one arity, so both backends must scan the same
  // candidate set: every record for a miss, records up to and including
  // the match for a hit.
  std::vector<Tuple> stored;
  for (std::int16_t i = 0; i < 6; ++i) {
    stored.push_back(keyed("fil", i));
  }
  const Tuple target = keyed("key", 9);
  stored.push_back(target);

  std::size_t all_bytes = 0;
  for (const Tuple& t : stored) {
    all_bytes += record_bytes(t);
  }

  for (const StoreKind kind : {StoreKind::kLinear, StoreKind::kIndexed}) {
    const auto store = make_store(kind, 600);
    for (const Tuple& t : stored) {
      ASSERT_TRUE(store->insert(t));
    }
    const CompiledTemplate miss(Template{
        Value::string("nop"), Value::type_wildcard(ValueType::kNumber)});
    ASSERT_FALSE(store->read(miss).has_value());
    EXPECT_EQ(store->last_op_bytes_touched(), all_bytes) << to_string(kind);

    const CompiledTemplate hit(Template{
        Value::string("key"), Value::type_wildcard(ValueType::kNumber)});
    ASSERT_TRUE(store->read(hit).has_value());
    // The target sits last: the scan walks every record to reach it.
    EXPECT_EQ(store->last_op_bytes_touched(), all_bytes) << to_string(kind);

    ASSERT_EQ(store->count_matching(hit), 1u);
    EXPECT_EQ(store->last_op_bytes_touched(), all_bytes) << to_string(kind);
  }
}

TEST(StoreConformance, TakeChargesScanPlusBytesMoved) {
  std::vector<Tuple> stored;
  for (std::int16_t i = 0; i < 5; ++i) {
    stored.push_back(keyed("fil", i));
  }
  const std::size_t first_record = record_bytes(stored[0]);
  std::size_t tail_bytes = 0;
  for (std::size_t i = 1; i < stored.size(); ++i) {
    tail_bytes += record_bytes(stored[i]);
  }

  const auto fill = [&](TupleStore& store) {
    for (const Tuple& t : stored) {
      ASSERT_TRUE(store.insert(t));
    }
  };
  const CompiledTemplate first(Template{Value::string("fil"),
                                        Value::number(0)});

  // Linear: removal shifts every byte behind the removed record forward.
  const auto linear = make_store(StoreKind::kLinear, 600);
  fill(*linear);
  ASSERT_TRUE(linear->take(first).has_value());
  EXPECT_EQ(linear->last_op_bytes_touched(), first_record + tail_bytes);

  // Indexed: a tombstone moves nothing; the scan is the whole cost.
  const auto indexed = make_store(StoreKind::kIndexed, 600);
  fill(*indexed);
  ASSERT_TRUE(indexed->take(first).has_value());
  EXPECT_EQ(indexed->last_op_bytes_touched(), first_record);
}

TEST(StoreConformance, RandomOpSequencesStayInLockstep) {
  // Randomized mirror of the scripted test, via the factory seam (the
  // typed equivalent lives in test_indexed_store.cpp; this one guards the
  // make_store() path the harness and middleware actually use).
  for (const std::uint64_t seed : {11ULL, 23ULL, 59ULL}) {
    sim::Rng rng(seed);
    const auto linear = make_store(StoreKind::kLinear, 300);
    const auto indexed = make_store(StoreKind::kIndexed, 300);
    for (int step = 0; step < 400; ++step) {
      const auto tag = std::string(1, 'a' + rng.uniform(3));
      const auto num = static_cast<std::int16_t>(rng.uniform(5));
      switch (rng.uniform(4)) {
        case 0: {
          const Tuple t = rng.chance(0.5) ? keyed(tag.c_str(), num)
                                          : Tuple{Value::number(num)};
          ASSERT_EQ(linear->insert(t), indexed->insert(t)) << "step " << step;
          break;
        }
        case 1: {
          const CompiledTemplate templ(
              Template{Value::string(tag),
                       Value::type_wildcard(ValueType::kNumber)});
          ASSERT_EQ(linear->take(templ), indexed->take(templ))
              << "step " << step;
          break;
        }
        case 2: {
          const CompiledTemplate templ(Template{Value::number(num)});
          ASSERT_EQ(linear->read(templ), indexed->read(templ))
              << "step " << step;
          break;
        }
        default: {
          const CompiledTemplate templ(
              Template{Value::type_wildcard(ValueType::kString),
                       Value::number(num)});
          ASSERT_EQ(linear->count_matching(templ),
                    indexed->count_matching(templ))
              << "step " << step;
          break;
        }
      }
      ASSERT_EQ(linear->tuple_count(), indexed->tuple_count());
      ASSERT_EQ(linear->used_bytes(), indexed->used_bytes());
      ASSERT_EQ(linear->snapshot(), indexed->snapshot()) << "step " << step;
    }
  }
}

}  // namespace
}  // namespace agilla::ts
