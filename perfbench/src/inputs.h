// Seeded input generation for the service benchmark: the documents each
// workload loads, the XPath query pools, the ancestry batch pools, and
// the expected reply of every request, computed without labels.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "xml/tree.h"

namespace perfbench {

using primelabel::NodeId;
using primelabel::XmlTree;

/// One wire request of a client stream, with what checking it needs.
struct Request {
  enum class Verb { kSnap, kXPath, kIsAnc, kDesc, kAnc };
  Verb verb = Verb::kSnap;
  std::string line;   ///< exactly what goes on the wire (no newline)
  std::string xpath;  ///< kXPath only
  /// kIsAnc: ancestors[i] / descendants[i] pairs. kDesc/kAnc: anchor in
  /// `ancestors[0]`, candidates in `descendants`.
  std::vector<NodeId> ancestors;
  std::vector<NodeId> descendants;
  /// HashReply of the correct reply; checked = false for SNAP, whose
  /// reply depends on the writer's progress.
  std::uint64_t expected = 0;
  bool checked = false;
  std::size_t pairs = 0;      ///< label decisions the oracle makes
  std::size_t positives = 0;  ///< of which true (from the reference)
};

/// A generated document: its XML text and the tree parsed back from that
/// text, whose NodeIds are preorder ranks — the ids a freshly created
/// store and every sealed view use.
struct DocumentInput {
  std::string xml;
  XmlTree tree;
};

/// `plays` Shakespeare plays under one `plays` root, every line and title
/// carrying a short seeded phrase as character data.
DocumentInput MakeCorpus(std::uint64_t seed, int plays);
/// One play rooted at `play`, with line and title text.
DocumentInput MakeSinglePlay(std::uint64_t seed);
/// GenerateRandomTree with the given size and depth bound.
DocumentInput MakeDeepTree(std::uint64_t seed, std::size_t nodes,
                           int max_depth, int max_fanout);

int MaxDepth(const XmlTree& tree);

/// `count` distinct Table-2-shaped queries over a MakeCorpus document:
/// child and descendant steps, following/preceding/sibling/parent/
/// ancestor axes, position, attribute and text() predicates.
std::vector<std::string> MakeQueryPool(int plays, std::uint64_t seed,
                                       std::size_t count);

/// `count` distinct queries over a MakeDeepTree document: child paths
/// with positions from the root, ending in a descendant step or one of
/// the sibling, parent and ancestor axes.
std::vector<std::string> MakeDeepQueryPool(std::uint64_t seed,
                                           std::size_t count);

/// Queries over MakeSinglePlay whose answers only involve nodes that
/// precede the play's last act, so writes inside that act leave them
/// unchanged.
std::vector<std::string> StableQuerySet();

/// First preorder id of the last act's subtree: ids below it are stable
/// while a writer edits only inside that act.
NodeId LastActId(const XmlTree& play);

/// Seeded ISANC/DESC/ANC requests over nodes with ids in [0, limit), with
/// batch sizes log-uniform in [min_k, max_k]. About half of the ISANC
/// pairs are true ancestor pairs at a uniformly chosen distance; DESC
/// anchors are internal elements. `isanc_only` restricts the verb mix.
/// Expected replies come from parent-pointer walks over `tree`.
std::vector<Request> MakeBatchPool(const XmlTree& tree, NodeId limit,
                                   std::uint64_t seed, std::size_t count,
                                   std::size_t min_k, std::size_t max_k,
                                   bool isanc_only);

/// Builds an XPATH request; the expected reply is filled in by the caller
/// from the reference evaluator.
Request XPathRequest(const std::string& xpath);
Request SnapRequest();

/// The reply the wire protocol gives for an id list.
std::string IdListReply(const std::vector<NodeId>& ids);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
