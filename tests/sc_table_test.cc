#include "core/sc_table.h"

#include <gtest/gtest.h>

#include <functional>

#include "primes/prime_source.h"
#include "util/rng.h"

namespace primelabel {
namespace {

// The self-labels of the paper's Figure 9 tree, in document order.
const std::vector<std::uint64_t> kFigure9Selves = {2, 3, 5, 7, 11, 13};

TEST(ScTable, SingleGlobalScValueMatchesFigure9) {
  ScTable table(/*group_size=*/100);
  table.Build(kFigure9Selves);
  ASSERT_EQ(table.records().size(), 1u);
  EXPECT_EQ(table.records()[0].sc.ToDecimalString(), "29243");
  EXPECT_EQ(table.records()[0].max_modulus, 13u);
  for (std::size_t k = 0; k < kFigure9Selves.size(); ++k) {
    EXPECT_EQ(table.OrderOf(kFigure9Selves[k]), k + 1);
  }
}

TEST(ScTable, GroupOfFiveMatchesFigure10) {
  ScTable table(/*group_size=*/5);
  table.Build(kFigure9Selves);
  ASSERT_EQ(table.records().size(), 2u);
  EXPECT_EQ(table.records()[0].sc.ToDecimalString(), "1523");
  EXPECT_EQ(table.records()[0].max_modulus, 11u);
  EXPECT_EQ(table.records()[1].sc.ToDecimalString(), "6");
  EXPECT_EQ(table.records()[1].max_modulus, 13u);
}

TEST(ScTable, InsertMatchesFigure11And12) {
  // Insert a node with self-label 17 so its order number is 3 (the paper's
  // new node in Figure 11). Orders of nodes after it shift by one.
  ScTable table(/*group_size=*/5);
  table.Build(kFigure9Selves);
  ScUpdateStats stats = table.InsertAt(
      17, 3, [](std::uint64_t) -> std::uint64_t {
        ADD_FAILURE() << "no relabel expected";
        return 0;
      });
  // Both records change: the first holds shifted orders, the second gains
  // the new congruence.
  EXPECT_EQ(stats.records_updated, 2);
  EXPECT_EQ(stats.nodes_relabeled, 0);
  EXPECT_EQ(table.OrderOf(17), 3u);
  EXPECT_EQ(table.OrderOf(2), 1u);
  EXPECT_EQ(table.OrderOf(3), 2u);
  EXPECT_EQ(table.OrderOf(5), 4u);   // shifted
  EXPECT_EQ(table.OrderOf(7), 5u);
  EXPECT_EQ(table.OrderOf(11), 6u);
  EXPECT_EQ(table.OrderOf(13), 7u);
  // Figure 12's second record: x mod 13 = 7, x mod 17 = 3.
  const ScRecord& second = table.records()[1];
  EXPECT_EQ((second.sc % BigInt(13)).ToDecimalString(), "7");
  EXPECT_EQ((second.sc % BigInt(17)).ToDecimalString(), "3");
  EXPECT_EQ(second.max_modulus, 17u);
}

TEST(ScTable, AppendAddsAtEnd) {
  ScTable table(/*group_size=*/5);
  table.Build(kFigure9Selves);
  ScUpdateStats stats = table.Append(17);
  EXPECT_EQ(stats.records_updated, 1);
  EXPECT_EQ(table.OrderOf(17), 7u);
  EXPECT_EQ(table.max_order(), 7u);
}

TEST(ScTable, InsertAtEndTouchesOneRecord) {
  ScTable table(/*group_size=*/5);
  table.Build(kFigure9Selves);
  ScUpdateStats stats = table.InsertAt(
      17, 7, [](std::uint64_t) -> std::uint64_t { return 0; });
  EXPECT_EQ(stats.records_updated, 1);  // nothing shifts
  EXPECT_EQ(table.OrderOf(17), 7u);
}

TEST(ScTable, RelabelsNodesWhoseOrderReachesModulus) {
  // Inserting at position 1 shifts self 2 to order 2 and self 3 to order 3;
  // neither modulus can encode its new order, so both are relabeled.
  ScTable table(/*group_size=*/5);
  table.Build(kFigure9Selves);
  std::vector<std::uint64_t> relabeled_selves;
  const std::uint64_t fresh_primes[] = {29, 31};
  ScUpdateStats stats =
      table.InsertAt(19, 1, [&](std::uint64_t old_self) -> std::uint64_t {
        relabeled_selves.push_back(old_self);
        return fresh_primes[relabeled_selves.size() - 1];
      });
  EXPECT_EQ(relabeled_selves, (std::vector<std::uint64_t>{2, 3}));
  EXPECT_EQ(stats.nodes_relabeled, 2);
  EXPECT_EQ(table.OrderOf(19), 1u);
  EXPECT_FALSE(table.Contains(2));
  EXPECT_FALSE(table.Contains(3));
  EXPECT_EQ(table.OrderOf(29), 2u);  // relabeled node, shifted order
  EXPECT_EQ(table.OrderOf(31), 3u);
  EXPECT_EQ(table.OrderOf(5), 4u);
}

TEST(ScTable, RemoveKeepsOtherOrders) {
  ScTable table(/*group_size=*/5);
  table.Build(kFigure9Selves);
  EXPECT_TRUE(table.Remove(5));
  EXPECT_FALSE(table.Contains(5));
  EXPECT_FALSE(table.Remove(5));  // already gone
  // Deletion leaves every other order untouched (Section 4.2).
  EXPECT_EQ(table.OrderOf(2), 1u);
  EXPECT_EQ(table.OrderOf(7), 4u);
  EXPECT_EQ(table.OrderOf(13), 6u);
}

TEST(ScTable, RemoveWholeRecordThenReuse) {
  ScTable table(/*group_size=*/2);
  table.Build({2, 3, 5});
  EXPECT_TRUE(table.Remove(5));  // empties the second record
  table.Append(7);
  EXPECT_EQ(table.OrderOf(7), 4u);
  EXPECT_EQ(table.OrderOf(2), 1u);
}

TEST(ScTable, GroupSizeOneDegeneratesToDirectStorage) {
  ScTable table(/*group_size=*/1);
  table.Build(kFigure9Selves);
  EXPECT_EQ(table.records().size(), 6u);
  for (const ScRecord& record : table.records()) {
    ASSERT_EQ(record.moduli.size(), 1u);
    EXPECT_EQ(record.sc.ToUint64() % record.moduli[0], record.orders[0]);
  }
  // An insert near the front updates every following record — group size
  // trades record-update cost against SC value size. (Self 3 shifts to
  // order 3 and must be relabeled.)
  ScUpdateStats stats = table.InsertAt(
      17, 2, [](std::uint64_t old_self) -> std::uint64_t {
        EXPECT_EQ(old_self, 3u);
        return 19;
      });
  EXPECT_EQ(stats.records_updated, 6);  // five shifted + one new
  EXPECT_EQ(stats.nodes_relabeled, 1);
  EXPECT_EQ(table.OrderOf(19), 3u);
}

TEST(ScTable, ScModSelfAlwaysRecoversOrder) {
  PrimeSource primes;
  for (int group_size : {1, 3, 5, 10, 64}) {
    ScTable table(group_size);
    std::vector<std::uint64_t> selves;
    for (std::size_t i = 0; i < 300; ++i) selves.push_back(primes.PrimeAt(i));
    table.Build(selves);
    for (std::size_t k = 0; k < selves.size(); ++k) {
      EXPECT_EQ(table.OrderOf(selves[k]), k + 1)
          << "group_size=" << group_size << " k=" << k;
    }
  }
}

TEST(ScTable, VerifyIntegrityHoldsThroughAllOperations) {
  PrimeSource primes;
  primes.SkipFirst(3);
  ScTable table(/*group_size=*/3);
  std::vector<std::uint64_t> selves;
  for (int i = 0; i < 30; ++i) selves.push_back(primes.Next());
  table.Build(selves);
  ASSERT_TRUE(table.VerifyIntegrity());
  table.Append(primes.Next());
  ASSERT_TRUE(table.VerifyIntegrity());
  table.InsertAt(primes.Next(), 5,
                 [&](std::uint64_t) { return primes.Next(); });
  ASSERT_TRUE(table.VerifyIntegrity());
  ASSERT_TRUE(table.Remove(selves[10]));
  ASSERT_TRUE(table.VerifyIntegrity());
  ASSERT_TRUE(table.Remove(selves[11]));
  ASSERT_TRUE(table.Remove(selves[9]));  // empties a record
  EXPECT_TRUE(table.VerifyIntegrity());
}

TEST(ScTable, FromRecordsRebuildsIndexAndVerifies) {
  ScTable original(/*group_size=*/5);
  original.Build(kFigure9Selves);
  ScTable rebuilt =
      ScTable::FromRecords(original.group_size(), original.records());
  EXPECT_TRUE(rebuilt.VerifyIntegrity());
  for (std::uint64_t self : kFigure9Selves) {
    EXPECT_EQ(rebuilt.OrderOf(self), original.OrderOf(self));
  }
  EXPECT_EQ(rebuilt.max_order(), original.max_order());
}

// Persisted SC values: FromRecords adopts a record's value only when it
// is the canonical CRT solution and re-solves anything else. Every case
// must end record-for-record equal to a full recompute. The moduli mix
// small primes with the largest 64-bit primes, whose top bit is set.
TEST(ScTable, FromRecordsAdoptsCanonicalValuesAndHealsTheRest) {
  std::vector<std::uint64_t> selves = {18446744073709551557ull,
                                       18446744073709551533ull,
                                       18446744073709551521ull};
  PrimeSource primes;
  primes.SkipFirst(5);
  for (int i = 0; i < 20; ++i) selves.push_back(primes.Next());
  ScTable reference(/*group_size=*/5);
  reference.Build(selves);
  const std::vector<ScRecord>& want = reference.records();

  auto product_of = [](const ScRecord& record) {
    BigInt product(1);
    for (std::uint64_t m : record.moduli) product *= BigInt::FromUint64(m);
    return product;
  };
  struct Case {
    const char* name;
    std::function<void(ScRecord*)> tamper;
    bool adopted;
  };
  const std::vector<Case> cases = {
      {"canonical", [](ScRecord*) {}, true},
      {"plus product",
       [&](ScRecord* r) { r->sc = r->sc + product_of(*r); }, false},
      // In range and congruent modulo every modulus but the first.
      {"one congruence broken",
       [&](ScRecord* r) {
         const BigInt product = product_of(*r);
         r->sc = (r->sc + product / BigInt::FromUint64(r->moduli[0])) %
                 product;
       },
       false},
      {"zero", [](ScRecord* r) { r->sc = BigInt(0); }, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<ScRecord> records = want;
    for (ScRecord& record : records) {
      c.tamper(&record);
      record.max_modulus = 0;  // v2/v3 records decode without it
    }
    const std::uint64_t solves = CrtSolveCount();
    ScTable loaded = ScTable::FromRecords(5, std::move(records));
    EXPECT_EQ(CrtSolveCount() - solves, c.adopted ? 0u : want.size());
    EXPECT_TRUE(loaded.VerifyIntegrity());
    ASSERT_EQ(loaded.records().size(), want.size());
    for (std::size_t r = 0; r < want.size(); ++r) {
      EXPECT_EQ(loaded.records()[r].moduli, want[r].moduli);
      EXPECT_EQ(loaded.records()[r].orders, want[r].orders);
      EXPECT_EQ(loaded.records()[r].sc, want[r].sc);
      EXPECT_EQ(loaded.records()[r].max_modulus, want[r].max_modulus);
    }
    EXPECT_EQ(loaded.max_order(), reference.max_order());
  }
}

TEST(ScTable, RandomInsertSequenceKeepsOrdersConsistent) {
  // Model: maintain a reference vector of selves in document order and
  // compare orders after each random insertion.
  PrimeSource primes;
  primes.SkipFirst(3);  // start at 7 so early orders stay below moduli
  ScTable table(/*group_size=*/4);
  std::vector<std::uint64_t> reference;
  for (int i = 0; i < 40; ++i) reference.push_back(primes.Next());
  table.Build(reference);

  Rng rng(2024);
  for (int round = 0; round < 60; ++round) {
    std::uint64_t self = primes.Next();
    std::uint64_t position = 1 + rng.Below(reference.size() + 1);
    table.InsertAt(self, position,
                   [&](std::uint64_t old_self) -> std::uint64_t {
                     std::uint64_t fresh = primes.Next();
                     for (auto& s : reference) {
                       if (s == old_self) s = fresh;
                     }
                     return fresh;
                   });
    reference.insert(reference.begin() +
                         static_cast<std::ptrdiff_t>(position - 1),
                     self);
    ASSERT_EQ(table.size(), reference.size());
    for (std::size_t k = 0; k < reference.size(); ++k) {
      ASSERT_EQ(table.OrderOf(reference[k]), k + 1)
          << "round " << round << " k " << k;
    }
  }
}

}  // namespace
}  // namespace primelabel
