#include <memory>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "labeling/dewey.h"
#include "labeling/float_interval.h"
#include "labeling/gapped_interval.h"
#include "labeling/interval.h"
#include "labeling/prefix.h"
#include "labeling/prime_bottom_up.h"
#include "labeling/prime_optimized.h"
#include "labeling/prime_top_down.h"
#include "labeling/scheme.h"
#include "util/rng.h"
#include "xml/datasets.h"
#include "xml/tree.h"

namespace primelabel {
namespace {

std::unique_ptr<LabelingScheme> MakeScheme(const std::string& name) {
  if (name == "interval") return std::make_unique<IntervalScheme>();
  if (name == "interval-xiss") {
    return std::make_unique<IntervalScheme>(IntervalVariant::kOrderSize);
  }
  if (name == "prefix-1") {
    return std::make_unique<PrefixScheme>(PrefixVariant::kUnary);
  }
  if (name == "prefix-2") {
    return std::make_unique<PrefixScheme>(PrefixVariant::kBinary);
  }
  if (name == "dewey") return std::make_unique<DeweyScheme>();
  if (name == "float-interval") return std::make_unique<FloatIntervalScheme>();
  if (name == "interval-gapped") {
    return std::make_unique<GappedIntervalScheme>(/*gap=*/256);
  }
  if (name == "prime-topdown") return std::make_unique<PrimeTopDownScheme>();
  if (name == "prime-bottomup") return std::make_unique<PrimeBottomUpScheme>();
  if (name == "prime") return std::make_unique<PrimeOptimizedScheme>();
  ADD_FAILURE() << "unknown scheme " << name;
  return nullptr;
}

// The paper's Figure 2 tree: root with two children; first child has two
// leaf children, second child has one leaf child.
XmlTree Figure2Tree(std::vector<NodeId>* nodes) {
  XmlTree tree;
  NodeId root = tree.CreateRoot("r");
  NodeId a = tree.AppendChild(root, "a");
  NodeId b = tree.AppendChild(root, "b");
  NodeId a1 = tree.AppendChild(a, "a1");
  NodeId a2 = tree.AppendChild(a, "a2");
  NodeId b1 = tree.AppendChild(b, "b1");
  *nodes = {root, a, b, a1, a2, b1};
  return tree;
}

// --- Scheme-specific behaviour ---------------------------------------------

TEST(IntervalScheme, StartEndNumbersFollowTraversal) {
  std::vector<NodeId> n;
  XmlTree tree = Figure2Tree(&n);
  IntervalScheme scheme;
  scheme.LabelTree(tree);
  // Preorder entry/exit: root(1,12) a(2,7) a1(3,4) a2(5,6) b(8,11) b1(9,10).
  EXPECT_EQ(scheme.low(n[0]), 1u);
  EXPECT_EQ(scheme.high(n[0]), 12u);
  EXPECT_EQ(scheme.low(n[1]), 2u);
  EXPECT_EQ(scheme.high(n[1]), 7u);
  EXPECT_EQ(scheme.low(n[5]), 9u);
  EXPECT_EQ(scheme.high(n[5]), 10u);
}

TEST(IntervalScheme, XissOrderSize) {
  std::vector<NodeId> n;
  XmlTree tree = Figure2Tree(&n);
  IntervalScheme scheme(IntervalVariant::kOrderSize);
  scheme.LabelTree(tree);
  // order = preorder index, size = subtree count.
  EXPECT_EQ(scheme.low(n[0]), 1u);
  EXPECT_EQ(scheme.high(n[0]), 6u);  // order 1 + size 6 - 1
  EXPECT_EQ(scheme.low(n[1]), 2u);
  EXPECT_EQ(scheme.high(n[1]), 4u);
  EXPECT_TRUE(scheme.IsAncestor(n[0], n[5]));
  EXPECT_FALSE(scheme.IsAncestor(n[1], n[5]));
}

TEST(IntervalScheme, InsertRelabelsFollowingNodes) {
  std::vector<NodeId> n;
  XmlTree tree = Figure2Tree(&n);
  IntervalScheme scheme;
  scheme.LabelTree(tree);
  // Insert before a2: a2, b, b1 shift (and the ancestors' ends move).
  NodeId fresh = tree.InsertBefore(n[4], "new");
  int relabeled = scheme.HandleInsert(fresh, InsertOrder::kUnordered);
  // new node + a2, b, b1 renumbered + root/a end values changed.
  EXPECT_GE(relabeled, 4);
  EXPECT_TRUE(scheme.IsAncestor(n[1], fresh));
  EXPECT_FALSE(scheme.IsAncestor(n[2], fresh));
}

TEST(IntervalScheme, AppendAtEndIsCheap) {
  std::vector<NodeId> n;
  XmlTree tree = Figure2Tree(&n);
  IntervalScheme scheme;
  scheme.LabelTree(tree);
  NodeId fresh = tree.AppendChild(n[2], "tail");  // last subtree
  int relabeled = scheme.HandleInsert(fresh, InsertOrder::kUnordered);
  // Only the new node plus the end-points of its ancestors change.
  EXPECT_LE(relabeled, 4);
}

TEST(PrefixSelfCode, UnaryConstruction) {
  EXPECT_EQ(PrefixSelfCode(PrefixVariant::kUnary, 0), "0");
  EXPECT_EQ(PrefixSelfCode(PrefixVariant::kUnary, 1), "10");
  EXPECT_EQ(PrefixSelfCode(PrefixVariant::kUnary, 2), "110");
  EXPECT_EQ(PrefixSelfCode(PrefixVariant::kUnary, 9), "1111111110");
}

TEST(PrefixSelfCode, BinaryConstructionMatchesPaperSequence) {
  // Section 3.1: "the labels for sibling nodes will be as follows:
  // 0, 10, 1100, 1101, 1110, 11110000".
  EXPECT_EQ(PrefixSelfCode(PrefixVariant::kBinary, 0), "0");
  EXPECT_EQ(PrefixSelfCode(PrefixVariant::kBinary, 1), "10");
  EXPECT_EQ(PrefixSelfCode(PrefixVariant::kBinary, 2), "1100");
  EXPECT_EQ(PrefixSelfCode(PrefixVariant::kBinary, 3), "1101");
  EXPECT_EQ(PrefixSelfCode(PrefixVariant::kBinary, 4), "1110");
  EXPECT_EQ(PrefixSelfCode(PrefixVariant::kBinary, 5), "11110000");
}

TEST(PrefixSelfCode, BinaryCodesArePrefixFree) {
  std::vector<std::string> codes;
  for (int i = 0; i < 64; ++i) {
    codes.push_back(PrefixSelfCode(PrefixVariant::kBinary, i));
  }
  for (std::size_t i = 0; i < codes.size(); ++i) {
    for (std::size_t j = 0; j < codes.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(codes[j].starts_with(codes[i]))
          << codes[i] << " prefixes " << codes[j];
    }
  }
}

TEST(PrefixSelfCode, BinaryCodesIncreaseLexicographically) {
  for (int i = 0; i + 1 < 64; ++i) {
    EXPECT_LT(PrefixSelfCode(PrefixVariant::kBinary, i),
              PrefixSelfCode(PrefixVariant::kBinary, i + 1))
        << i;
  }
}

TEST(PrefixScheme, LabelsConcatenateParentCodes) {
  std::vector<NodeId> n;
  XmlTree tree = Figure2Tree(&n);
  PrefixScheme scheme(PrefixVariant::kBinary);
  scheme.LabelTree(tree);
  EXPECT_EQ(scheme.label(n[0]), "");
  EXPECT_EQ(scheme.label(n[1]), "0");
  EXPECT_EQ(scheme.label(n[2]), "10");
  EXPECT_EQ(scheme.label(n[3]), "00");
  EXPECT_EQ(scheme.label(n[4]), "010");
  EXPECT_EQ(scheme.label(n[5]), "100");
}

TEST(PrefixScheme, UnorderedInsertRelabelsOnlyNewNode) {
  std::vector<NodeId> n;
  XmlTree tree = Figure2Tree(&n);
  PrefixScheme scheme(PrefixVariant::kBinary);
  scheme.LabelTree(tree);
  NodeId fresh = tree.InsertBefore(n[4], "new");
  EXPECT_EQ(scheme.HandleInsert(fresh, InsertOrder::kUnordered), 1);
  EXPECT_TRUE(scheme.IsAncestor(n[1], fresh));
  EXPECT_TRUE(scheme.IsParent(n[1], fresh));
  // Existing labels untouched.
  EXPECT_EQ(scheme.label(n[4]), "010");
}

TEST(PrefixScheme, OrderedInsertRelabelsFollowingSiblingSubtrees) {
  std::vector<NodeId> n;
  XmlTree tree = Figure2Tree(&n);
  PrefixScheme scheme(PrefixVariant::kBinary);
  scheme.LabelTree(tree);
  // Insert before node a (first child of root): both a and b subtrees shift.
  NodeId fresh = tree.InsertBefore(n[1], "new");
  int relabeled = scheme.HandleInsert(fresh, InsertOrder::kDocumentOrder);
  EXPECT_EQ(relabeled, 6);  // new + a,a1,a2 + b,b1
  EXPECT_EQ(scheme.label(fresh), "0");
  EXPECT_EQ(scheme.label(n[1]), "10");
  EXPECT_EQ(scheme.label(n[2]), "1100");
}

TEST(PrefixScheme, WrapRelabelsDescendants) {
  std::vector<NodeId> n;
  XmlTree tree = Figure2Tree(&n);
  PrefixScheme scheme(PrefixVariant::kBinary);
  scheme.LabelTree(tree);
  NodeId wrapper = tree.WrapNode(n[1], "wrap");  // wraps a (2 children)
  int relabeled = scheme.HandleInsert(wrapper, InsertOrder::kUnordered);
  EXPECT_EQ(relabeled, 4);  // wrapper + a + a1 + a2
  EXPECT_TRUE(scheme.IsParent(wrapper, n[1]));
  EXPECT_TRUE(scheme.IsAncestor(wrapper, n[3]));
  EXPECT_TRUE(scheme.IsAncestor(n[0], wrapper));
}

TEST(DeweyScheme, PathsAreSiblingOrdinals) {
  std::vector<NodeId> n;
  XmlTree tree = Figure2Tree(&n);
  DeweyScheme scheme;
  scheme.LabelTree(tree);
  EXPECT_EQ(scheme.LabelString(n[0]), "(root)");
  EXPECT_EQ(scheme.LabelString(n[1]), "1");
  EXPECT_EQ(scheme.LabelString(n[4]), "1.2");
  EXPECT_EQ(scheme.LabelString(n[5]), "2.1");
  EXPECT_TRUE(scheme.IsAncestor(n[1], n[4]));
  EXPECT_TRUE(scheme.IsParent(n[2], n[5]));
  EXPECT_FALSE(scheme.IsAncestor(n[1], n[5]));
}

TEST(PrimeTopDown, LabelsAreRootPathProducts) {
  std::vector<NodeId> n;
  XmlTree tree = Figure2Tree(&n);
  PrimeTopDownScheme scheme;
  scheme.LabelTree(tree);
  // Preorder prime assignment: a=2, a1=3, a2=5, b=7, b1=11.
  EXPECT_EQ(scheme.label(n[0]).ToDecimalString(), "1");
  EXPECT_EQ(scheme.label(n[1]).ToDecimalString(), "2");
  EXPECT_EQ(scheme.label(n[3]).ToDecimalString(), "6");    // 2*3
  EXPECT_EQ(scheme.label(n[4]).ToDecimalString(), "10");   // 2*5
  EXPECT_EQ(scheme.label(n[2]).ToDecimalString(), "7");
  EXPECT_EQ(scheme.label(n[5]).ToDecimalString(), "77");   // 7*11
  // The paper's Figure 2 example: parent-label of "10" is 2, self-label 5.
  EXPECT_EQ(scheme.self_label(n[4]), 5u);
}

TEST(PrimeTopDown, DivisibilityDecidesAncestry) {
  std::vector<NodeId> n;
  XmlTree tree = Figure2Tree(&n);
  PrimeTopDownScheme scheme;
  scheme.LabelTree(tree);
  EXPECT_TRUE(scheme.IsAncestor(n[0], n[5]));
  EXPECT_TRUE(scheme.IsAncestor(n[1], n[4]));
  EXPECT_FALSE(scheme.IsAncestor(n[1], n[5]));
  EXPECT_FALSE(scheme.IsAncestor(n[4], n[1]));
  EXPECT_FALSE(scheme.IsAncestor(n[3], n[4]));  // siblings
  EXPECT_TRUE(scheme.IsParent(n[2], n[5]));
  EXPECT_FALSE(scheme.IsParent(n[0], n[5]));  // grandparent, not parent
}

TEST(PrimeTopDown, InsertNeverRelabelsExistingNodes) {
  std::vector<NodeId> n;
  XmlTree tree = Figure2Tree(&n);
  PrimeTopDownScheme scheme;
  scheme.LabelTree(tree);
  BigInt before_a2 = scheme.label(n[4]);
  NodeId fresh = tree.InsertBefore(n[4], "new");
  EXPECT_EQ(scheme.HandleInsert(fresh, InsertOrder::kUnordered), 1);
  EXPECT_EQ(scheme.label(n[4]), before_a2);
  EXPECT_TRUE(scheme.IsAncestor(n[1], fresh));
  EXPECT_TRUE(scheme.IsParent(n[1], fresh));
  // The fresh node's self-label is a previously unused prime.
  EXPECT_EQ(scheme.self_label(fresh), 13u);
}

TEST(PrimeTopDown, WrapRelabelsOnlyDescendants) {
  std::vector<NodeId> n;
  XmlTree tree = Figure2Tree(&n);
  PrimeTopDownScheme scheme;
  scheme.LabelTree(tree);
  BigInt b_label = scheme.label(n[2]);
  NodeId wrapper = tree.WrapNode(n[1], "wrap");
  int relabeled = scheme.HandleInsert(wrapper, InsertOrder::kUnordered);
  EXPECT_EQ(relabeled, 4);  // wrapper + a + a1 + a2
  EXPECT_EQ(scheme.label(n[2]), b_label);  // sibling untouched
  EXPECT_TRUE(scheme.IsParent(wrapper, n[1]));
  EXPECT_TRUE(scheme.IsAncestor(n[0], wrapper));
  EXPECT_TRUE(scheme.IsAncestor(wrapper, n[3]));
}

TEST(PrimeBottomUp, ParentsAreChildProducts) {
  std::vector<NodeId> n;
  XmlTree tree = Figure2Tree(&n);
  PrimeBottomUpScheme scheme;
  scheme.LabelTree(tree);
  // Post-order prime assignment to leaves: a1=2, a2=3, b1=5.
  EXPECT_EQ(scheme.label(n[3]).ToDecimalString(), "2");
  EXPECT_EQ(scheme.label(n[4]).ToDecimalString(), "3");
  EXPECT_EQ(scheme.label(n[1]).ToDecimalString(), "6");
  // b has a single child: product gains a disambiguating prime (7).
  EXPECT_EQ(scheme.label(n[5]).ToDecimalString(), "5");
  EXPECT_EQ(scheme.label(n[2]).ToDecimalString(), "35");
  EXPECT_EQ(scheme.label(n[0]).ToDecimalString(), "210");  // 6 * 35
}

TEST(PrimeBottomUp, ReverseDivisibilityDecidesAncestry) {
  std::vector<NodeId> n;
  XmlTree tree = Figure2Tree(&n);
  PrimeBottomUpScheme scheme;
  scheme.LabelTree(tree);
  // Property 2: x ancestor of y iff label(x) mod label(y) == 0.
  EXPECT_TRUE(scheme.IsAncestor(n[0], n[3]));
  EXPECT_TRUE(scheme.IsAncestor(n[1], n[4]));
  EXPECT_TRUE(scheme.IsAncestor(n[2], n[5]));
  EXPECT_FALSE(scheme.IsAncestor(n[1], n[5]));
  EXPECT_FALSE(scheme.IsAncestor(n[3], n[1]));
  EXPECT_TRUE(scheme.IsParent(n[0], n[1]));
  EXPECT_FALSE(scheme.IsParent(n[0], n[3]));
}

TEST(PrimeBottomUp, InsertRelabelsRootPath) {
  std::vector<NodeId> n;
  XmlTree tree = Figure2Tree(&n);
  PrimeBottomUpScheme scheme;
  scheme.LabelTree(tree);
  NodeId fresh = tree.AppendChild(n[1], "new");  // under a, depth 2
  int relabeled = scheme.HandleInsert(fresh, InsertOrder::kUnordered);
  EXPECT_EQ(relabeled, 3);  // fresh + a + root
  EXPECT_TRUE(scheme.IsAncestor(n[1], fresh));
  EXPECT_TRUE(scheme.IsAncestor(n[0], fresh));
  EXPECT_FALSE(scheme.IsAncestor(n[2], fresh));
  // Untouched branch still correct.
  EXPECT_TRUE(scheme.IsAncestor(n[2], n[5]));
}

TEST(PrimeOptimized, LeavesGetPowersOfTwo) {
  std::vector<NodeId> n;
  XmlTree tree = Figure2Tree(&n);
  PrimeOptimizedScheme scheme;
  scheme.LabelTree(tree);
  // a and b are top-level non-leaves: reserved primes 3 and 5. Leaves get
  // powers of two per parent: a1=2, a2=4, b1=2.
  EXPECT_EQ(scheme.self_label(n[1]).ToDecimalString(), "3");
  EXPECT_EQ(scheme.self_label(n[2]).ToDecimalString(), "5");
  EXPECT_EQ(scheme.self_label(n[3]).ToDecimalString(), "2");
  EXPECT_EQ(scheme.self_label(n[4]).ToDecimalString(), "4");
  EXPECT_EQ(scheme.self_label(n[5]).ToDecimalString(), "2");
  EXPECT_EQ(scheme.label(n[4]).ToDecimalString(), "12");  // 3*4
  EXPECT_EQ(scheme.label(n[5]).ToDecimalString(), "10");  // 5*2
}

TEST(PrimeOptimized, Property3DecidesAncestry) {
  std::vector<NodeId> n;
  XmlTree tree = Figure2Tree(&n);
  PrimeOptimizedScheme scheme;
  scheme.LabelTree(tree);
  EXPECT_TRUE(scheme.IsAncestor(n[0], n[4]));
  EXPECT_TRUE(scheme.IsAncestor(n[1], n[3]));
  EXPECT_TRUE(scheme.IsAncestor(n[1], n[4]));
  EXPECT_TRUE(scheme.IsAncestor(n[2], n[5]));
  EXPECT_FALSE(scheme.IsAncestor(n[1], n[5]));
  // Crucially: a1's label (6 = 3*2) divides a2's label (12 = 3*4), but a1
  // is even, so Property 3 correctly rejects the sibling pair.
  EXPECT_TRUE(scheme.label(n[4]).IsDivisibleBy(scheme.label(n[3])));
  EXPECT_FALSE(scheme.IsAncestor(n[3], n[4]));
}

TEST(PrimeOptimized, LeafInsertUnderLeafRelabelsTwoNodes) {
  std::vector<NodeId> n;
  XmlTree tree = Figure2Tree(&n);
  PrimeOptimizedScheme scheme;
  scheme.LabelTree(tree);
  // a1 is a leaf with an even self-label; giving it a child forces a prime
  // self-label onto a1 — the "2 nodes relabeled" of Section 5.3.
  NodeId fresh = tree.AppendChild(n[3], "deep");
  int relabeled = scheme.HandleInsert(fresh, InsertOrder::kUnordered);
  EXPECT_EQ(relabeled, 2);
  EXPECT_TRUE(scheme.self_label(n[3]).IsOdd());
  EXPECT_TRUE(scheme.IsAncestor(n[3], fresh));
  EXPECT_TRUE(scheme.IsAncestor(n[1], fresh));
  EXPECT_TRUE(scheme.IsParent(n[3], fresh));
}

TEST(PrimeOptimized, SiblingLeafInsertRelabelsOneNode) {
  std::vector<NodeId> n;
  XmlTree tree = Figure2Tree(&n);
  PrimeOptimizedScheme scheme;
  scheme.LabelTree(tree);
  NodeId fresh = tree.InsertAfter(n[4], "new");  // sibling under a
  EXPECT_EQ(scheme.HandleInsert(fresh, InsertOrder::kUnordered), 1);
  EXPECT_EQ(scheme.self_label(fresh).ToDecimalString(), "8");  // 2^3
  EXPECT_TRUE(scheme.IsParent(n[1], fresh));
}

TEST(PrimeOptimized, LeafExponentThresholdFallsBackToPrimes) {
  PrimeOptimizedOptions options;
  options.max_leaf_exponent = 3;
  PrimeOptimizedScheme scheme(options);
  XmlTree tree;
  NodeId root = tree.CreateRoot("r");
  NodeId parent = tree.AppendChild(root, "p");
  std::vector<NodeId> leaves;
  for (int i = 0; i < 6; ++i) leaves.push_back(tree.AppendChild(parent, "l"));
  scheme.LabelTree(tree);
  EXPECT_EQ(scheme.self_label(leaves[0]).ToDecimalString(), "2");
  EXPECT_EQ(scheme.self_label(leaves[2]).ToDecimalString(), "8");
  // Leaves beyond 2^3 take odd primes instead.
  EXPECT_TRUE(scheme.self_label(leaves[3]).IsOdd());
  EXPECT_TRUE(scheme.self_label(leaves[5]).IsOdd());
  // Ancestor tests still correct for every pair.
  for (NodeId leaf : leaves) {
    EXPECT_TRUE(scheme.IsAncestor(parent, leaf));
    EXPECT_TRUE(scheme.IsAncestor(root, leaf));
    for (NodeId other : leaves) {
      if (leaf != other) {
        EXPECT_FALSE(scheme.IsAncestor(leaf, other));
      }
    }
  }
}

TEST(PrimeOptimized, ReservedPrimesKeepTopLevelSelvesSmall) {
  // A two-level tree whose top-level nodes come late in DFS order would,
  // without Opt1, receive large primes.
  XmlTree tree;
  NodeId root = tree.CreateRoot("r");
  for (int i = 0; i < 8; ++i) {
    NodeId top = tree.AppendChild(root, "top");
    NodeId mid = tree.AppendChild(top, "mid");
    for (int j = 0; j < 30; ++j) tree.AppendChild(mid, "leaf");
  }
  PrimeOptimizedOptions with;
  with.reserved_primes = 16;
  PrimeOptimizedScheme opt1(with);
  opt1.LabelTree(tree);
  PrimeOptimizedOptions without;
  without.reserved_primes = 0;
  PrimeOptimizedScheme plain(without);
  plain.LabelTree(tree);
  // The last top-level node's self must be smaller with reservation.
  std::vector<NodeId> tops = tree.FindAll("top");
  EXPECT_LT(opt1.self_label(tops.back()), plain.self_label(tops.back()));
  EXPECT_LE(opt1.MaxLabelBits(), plain.MaxLabelBits());
}

TEST(FloatInterval, InsertsFitUntilMantissaExhaustion) {
  XmlTree tree;
  NodeId root = tree.CreateRoot("r");
  tree.AppendChild(root, "a");
  FloatIntervalScheme scheme;
  scheme.LabelTree(tree);
  // Prepend repeatedly: each insertion halves the leading gap. All fit
  // without relabeling for a while...
  int cheap = 0;
  while (scheme.relabel_events() == 0 && cheap < 200) {
    NodeId fresh = tree.InsertBefore(tree.first_child(root), "new");
    scheme.HandleInsert(fresh, InsertOrder::kUnordered);
    ++cheap;
  }
  // ...but the double mantissa (52 bits) runs out near 50 insertions.
  EXPECT_GT(cheap, 20);
  EXPECT_LT(cheap, 80);
  EXPECT_EQ(scheme.relabel_events(), 1);
  // Correctness holds across the relabel.
  std::vector<NodeId> nodes = tree.PreorderNodes();
  for (NodeId x : nodes) {
    for (NodeId y : nodes) {
      ASSERT_EQ(scheme.IsAncestor(x, y), tree.IsAncestor(x, y));
    }
  }
}

TEST(FloatInterval, FixedLengthLabelIsTwoDoubles) {
  XmlTree tree;
  tree.CreateRoot("r");
  FloatIntervalScheme scheme;
  scheme.LabelTree(tree);
  EXPECT_EQ(scheme.MaxLabelBits(), 128);
}

// --- Cross-scheme properties -------------------------------------------------

using SchemeSeed = std::tuple<std::string, int>;

class SchemePropertyTest : public ::testing::TestWithParam<SchemeSeed> {};

TEST_P(SchemePropertyTest, RelationshipsMatchGroundTruth) {
  auto [name, seed] = GetParam();
  RandomTreeOptions options;
  options.node_count = 120;
  options.max_depth = 5;
  options.max_fanout = 8;
  options.seed = static_cast<std::uint64_t>(seed);
  XmlTree tree = GenerateRandomTree(options);
  std::unique_ptr<LabelingScheme> scheme = MakeScheme(name);
  scheme->LabelTree(tree);
  std::vector<NodeId> nodes = tree.PreorderNodes();
  for (NodeId x : nodes) {
    for (NodeId y : nodes) {
      EXPECT_EQ(scheme->IsAncestor(x, y), tree.IsAncestor(x, y))
          << name << " ancestor x=" << x << " y=" << y;
      EXPECT_EQ(scheme->IsParent(x, y), tree.parent(y) == x)
          << name << " parent x=" << x << " y=" << y;
    }
  }
}

TEST_P(SchemePropertyTest, RelationshipsSurviveRandomInserts) {
  auto [name, seed] = GetParam();
  RandomTreeOptions options;
  options.node_count = 60;
  options.max_depth = 5;
  options.max_fanout = 6;
  options.seed = static_cast<std::uint64_t>(seed) * 31 + 7;
  XmlTree tree = GenerateRandomTree(options);
  std::unique_ptr<LabelingScheme> scheme = MakeScheme(name);
  scheme->LabelTree(tree);

  Rng rng(static_cast<std::uint64_t>(seed));
  for (int round = 0; round < 25; ++round) {
    std::vector<NodeId> nodes = tree.PreorderNodes();
    NodeId target = nodes[rng.Below(nodes.size())];
    NodeId fresh;
    switch (rng.Below(4)) {
      case 0:
        fresh = tree.AppendChild(target, "ins");
        break;
      case 1:
        fresh = target == tree.root() ? tree.AppendChild(target, "ins")
                                      : tree.InsertBefore(target, "ins");
        break;
      case 2:
        fresh = target == tree.root() ? tree.AppendChild(target, "ins")
                                      : tree.InsertAfter(target, "ins");
        break;
      default:
        fresh = target == tree.root() ? tree.AppendChild(target, "ins")
                                      : tree.WrapNode(target, "ins");
    }
    int relabeled = scheme->HandleInsert(fresh, InsertOrder::kUnordered);
    EXPECT_GE(relabeled, 1) << name;
  }
  std::vector<NodeId> nodes = tree.PreorderNodes();
  for (NodeId x : nodes) {
    for (NodeId y : nodes) {
      EXPECT_EQ(scheme->IsAncestor(x, y), tree.IsAncestor(x, y))
          << name << " ancestor x=" << x << " y=" << y;
      EXPECT_EQ(scheme->IsParent(x, y), tree.parent(y) == x)
          << name << " parent x=" << x << " y=" << y;
    }
  }
}

TEST_P(SchemePropertyTest, LabelBitsArePositiveAndBounded) {
  auto [name, seed] = GetParam();
  RandomTreeOptions options;
  options.node_count = 200;
  options.max_depth = 6;
  options.max_fanout = 10;
  options.seed = static_cast<std::uint64_t>(seed) + 1000;
  XmlTree tree = GenerateRandomTree(options);
  std::unique_ptr<LabelingScheme> scheme = MakeScheme(name);
  scheme->LabelTree(tree);
  int max_bits = scheme->MaxLabelBits();
  EXPECT_GT(max_bits, 0) << name;
  EXPECT_LT(max_bits, 4096) << name;
  EXPECT_LE(scheme->AvgLabelBits(), max_bits) << name;
  EXPECT_GT(scheme->TotalLabelBits(), 0u) << name;
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemePropertyTest,
    ::testing::Combine(
        ::testing::Values("interval", "interval-xiss", "float-interval",
                          "interval-gapped",
                          "prefix-1", "prefix-2", "dewey", "prime-topdown",
                          "prime-bottomup", "prime"),
        ::testing::Range(1, 6)),
    [](const ::testing::TestParamInfo<SchemeSeed>& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace primelabel
