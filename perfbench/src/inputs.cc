#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "common.h"
#include "util/rng.h"
#include "xml/datasets.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xml/shakespeare.h"

namespace perfbench {
namespace {

using primelabel::kInvalidNodeId;
using primelabel::Rng;

constexpr const char* kWords[] = {"to",   "be",    "or",    "not",
                                  "sweet", "night", "crown", "ghost",
                                  "blood", "grave", "king",  "queen"};
constexpr std::uint64_t kWordCount = sizeof(kWords) / sizeof(kWords[0]);

constexpr const char* kSpeakers[] = {"HAMLET",  "CLAUDIUS", "GERTRUDE",
                                     "POLONIUS", "OPHELIA", "LAERTES",
                                     "HORATIO", "GHOST",    "OSRIC"};
constexpr std::uint64_t kSpeakerCount =
    sizeof(kSpeakers) / sizeof(kSpeakers[0]);

std::string Phrase(Rng& rng) {
  return std::string(kWords[rng.Below(kWordCount)]) + " " +
         kWords[rng.Below(kWordCount)];
}

/// Copies `play` under `parent` of `out` (or as its root when parent is
/// invalid), giving every line and title a phrase of character data.
void CopyPlay(const XmlTree& play, XmlTree* out, NodeId parent, Rng& rng) {
  std::vector<NodeId> mapping(play.arena_size(), kInvalidNodeId);
  play.Preorder([&](NodeId id, int depth) {
    NodeId copy;
    if (depth == 0) {
      copy = parent == kInvalidNodeId ? out->CreateRoot(play.name(id))
                                      : out->AppendChild(parent, play.name(id));
    } else {
      copy = out->AppendChild(mapping[static_cast<std::size_t>(play.parent(id))],
                              play.name(id));
    }
    for (const auto& [key, value] : play.node(id).attributes) {
      out->AddAttribute(copy, key, value);
    }
    if (play.name(id) == "line" || play.name(id) == "title") {
      out->AppendText(copy, Phrase(rng));
    }
    mapping[static_cast<std::size_t>(id)] = copy;
  });
}

DocumentInput Finish(const XmlTree& built) {
  DocumentInput input;
  input.xml = primelabel::SerializeXml(built);
  primelabel::Result<XmlTree> parsed = primelabel::ParseXml(input.xml);
  PL_CHECK(parsed.ok());
  input.tree = std::move(parsed.value());
  return input;
}

primelabel::PlayOptions PlayShape(std::uint64_t seed) {
  primelabel::PlayOptions options;
  options.acts = 5;
  options.scenes_per_act = 4;
  options.min_speeches_per_scene = 40;
  options.max_speeches_per_scene = 40;
  options.min_lines_per_speech = 1;
  options.max_lines_per_speech = 4;
  options.seed = seed;
  return options;
}

bool IsAncestorByWalk(const XmlTree& tree, NodeId ancestor, NodeId node) {
  for (NodeId p = tree.parent(node); p != kInvalidNodeId; p = tree.parent(p)) {
    if (p == ancestor) return true;
  }
  return false;
}

std::vector<NodeId> AncestorsOf(const XmlTree& tree, NodeId node) {
  std::vector<NodeId> chain;
  for (NodeId p = tree.parent(node); p != kInvalidNodeId; p = tree.parent(p)) {
    chain.push_back(p);
  }
  return chain;
}

/// Subtree sizes by preorder id (ids are preorder ranks, so the subtree of
/// x is exactly [x, x + size[x])).
std::vector<std::size_t> SubtreeSizes(const XmlTree& tree) {
  std::vector<std::size_t> size(tree.arena_size(), 1);
  for (NodeId id = static_cast<NodeId>(tree.arena_size()) - 1; id > 0; --id) {
    const NodeId p = tree.parent(id);
    if (p != kInvalidNodeId) size[static_cast<std::size_t>(p)] += size[id];
  }
  return size;
}

}  // namespace

DocumentInput MakeCorpus(std::uint64_t seed, int plays) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 11);
  XmlTree corpus;
  const NodeId root = corpus.CreateRoot("plays");
  for (int p = 0; p < plays; ++p) {
    CopyPlay(primelabel::GeneratePlay("play", PlayShape(rng.Next())), &corpus,
             root, rng);
  }
  return Finish(corpus);
}

DocumentInput MakeSinglePlay(std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 23);
  primelabel::PlayOptions options = PlayShape(rng.Next());
  options.scenes_per_act = 3;
  options.min_speeches_per_scene = 11;
  options.max_speeches_per_scene = 11;
  XmlTree play;
  CopyPlay(primelabel::GeneratePlay("play", options), &play, kInvalidNodeId,
           rng);
  return Finish(play);
}

DocumentInput MakeDeepTree(std::uint64_t seed, std::size_t nodes,
                           int max_depth, int max_fanout) {
  primelabel::RandomTreeOptions options;
  options.node_count = nodes;
  options.max_depth = max_depth;
  options.max_fanout = max_fanout;
  options.seed = seed * 0x9E3779B97F4A7C15ull + 37;
  return Finish(primelabel::GenerateRandomTree(options));
}

int MaxDepth(const XmlTree& tree) {
  int deepest = 0;
  tree.Preorder([&](NodeId, int depth) { deepest = std::max(deepest, depth); });
  return deepest;
}

std::vector<std::string> MakeQueryPool(int plays, std::uint64_t seed,
                                       std::size_t count) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 41);
  auto n = [&](std::uint64_t lo, std::uint64_t hi) {
    return std::to_string(rng.Uniform(lo, hi));
  };
  auto play = [&] { return "/plays/play[" + n(1, plays) + "]"; };
  auto speaker = [&] {
    return std::string("[@name='") + kSpeakers[rng.Below(kSpeakerCount)] +
           "']";
  };
  auto text = [&] { return "[text()='" + Phrase(rng) + "']"; };
  std::set<std::string> seen;
  std::vector<std::string> pool;
  while (pool.size() < count) {
    std::string q;
    switch (rng.Below(14)) {
      case 0: q = play() + "//act[" + n(1, 5) + "]"; break;
      case 1: q = play() + "//act[" + n(1, 5) + "]//Following::act"; break;
      case 2:
        q = play() + "//act[" + n(1, 5) + "]//speaker" + speaker();
        break;
      case 3:
        q = play() + "/act[" + n(1, 5) + "]/scene[" + n(1, 4) +
            "]//Following::speech[" + n(1, 40) + "]";
        break;
      case 4:
        q = play() + "//scene[" + n(1, 4) + "]/speech[" + n(1, 40) +
            "]//Preceding::line";
        break;
      case 5: q = play() + "/act[" + n(1, 5) + "]//line" + text(); break;
      case 6:
        q = play() + "/act[" + n(1, 5) + "]/scene[" + n(1, 4) + "]/speech[" +
            n(1, 30) + "]//Following-sibling::speech[" + n(1, 8) + "]";
        break;
      case 7:
        q = play() + "/act[" + n(1, 5) + "]/scene[" + n(1, 4) + "]//speech";
        break;
      case 8:
        q = "//act[" + n(1, 5) + "]/scene[" + n(1, 4) + "]//speaker" +
            speaker() + "//Parent::speech";
        break;
      case 9: q = play() + "//line" + text() + "//Ancestor::scene"; break;
      case 10:
        q = play() + "/act[" + n(1, 5) + "]/scene[" + n(1, 4) + "]/speech[" +
            n(1, 30) + "]//Preceding-sibling::speech";
        break;
      case 11:
        q = play() + "//speech[" + n(1, 40) + "]/line[" + n(1, 4) + "]";
        break;
      case 12:
        q = play() + "/personae/persona[" + n(1, 26) +
            "]//Following-sibling::persona";
        break;
      default:
        q = play() + "//act[" + n(1, 5) + "]/scene[" + n(1, 4) + "]/title";
        break;
    }
    if (seen.insert(q).second) pool.push_back(q);
  }
  return pool;
}

std::vector<std::string> MakeDeepQueryPool(std::uint64_t seed,
                                           std::size_t count) {
  static constexpr const char* kTags[] = {"a", "b", "c", "d", "e", "f"};
  // GenerateRandomTree names its root element "root".
  const std::string root = "root";
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 47);
  auto tag = [&] { return std::string(kTags[rng.Below(6)]); };
  auto pos = [&] {
    std::string p = "[";
    p += std::to_string(rng.Uniform(1, 3));
    p += ']';
    return p;
  };
  std::set<std::string> seen;
  std::vector<std::string> pool;
  while (pool.size() < count) {
    std::string q = "/" + root + "/" + tag() + pos() + "/" + tag() + pos();
    switch (rng.Below(6)) {
      case 0: q += "//" + tag(); break;
      case 1: q += "/" + tag() + "//" + tag() + pos(); break;
      case 2: q += "/" + tag() + "//Following-sibling::" + tag(); break;
      case 3: q += "//" + tag() + pos() + "//Ancestor::" + tag(); break;
      case 4: q += "//" + tag() + pos() + "//Preceding-sibling::" + tag(); break;
      default: q += "/" + tag() + "/" + tag() + "//Parent::" + tag(); break;
    }
    if (seen.insert(q).second) pool.push_back(q);
  }
  return pool;
}

std::vector<std::string> StableQuerySet() {
  return {"/play/act[1]//speech",
          "/play/act[2]/scene[1]//line",
          "/play/act[3]//speaker[@name='HAMLET']",
          "/play/act[1]//Following-sibling::act",
          "/play/act[4]//line[text()='to be']",
          "/play/act[2]//speaker[@name='OPHELIA']//Ancestor::scene",
          "/play/personae/persona[3]//Following-sibling::persona",
          "/play/act[3]/scene[2]/speech[2]//Preceding::speaker"};
}

NodeId LastActId(const XmlTree& play) {
  NodeId last = kInvalidNodeId;
  for (NodeId child : play.Children(play.root())) {
    if (play.IsElement(child) && play.name(child) == "act") last = child;
  }
  PL_CHECK(last != kInvalidNodeId);
  return last;
}

std::string IdListReply(const std::vector<NodeId>& ids) {
  std::string out = "OK " + std::to_string(ids.size());
  for (NodeId id : ids) out += ' ' + std::to_string(id);
  return out;
}

Request XPathRequest(const std::string& xpath) {
  Request r;
  r.verb = Request::Verb::kXPath;
  r.xpath = xpath;
  r.line = "XPATH " + xpath;
  return r;
}

Request SnapRequest() {
  Request r;
  r.verb = Request::Verb::kSnap;
  r.line = "SNAP";
  return r;
}

std::vector<Request> MakeBatchPool(const XmlTree& tree, NodeId limit,
                                   std::uint64_t seed, std::size_t count,
                                   std::size_t min_k, std::size_t max_k,
                                   bool isanc_only) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 53);
  const std::vector<std::size_t> subtree = SubtreeSizes(tree);
  const auto any_node = [&] {
    return static_cast<NodeId>(rng.Below(static_cast<std::uint64_t>(limit)));
  };
  // Internal elements whose whole subtree lies below `limit`.
  std::vector<NodeId> internal;
  for (NodeId id = 0; id < limit; ++id) {
    if (tree.IsElement(id) && subtree[static_cast<std::size_t>(id)] > 1 &&
        id + static_cast<NodeId>(subtree[static_cast<std::size_t>(id)]) <=
            limit) {
      internal.push_back(id);
    }
  }
  PL_CHECK(!internal.empty() && limit > 2);

  std::vector<Request> pool;
  pool.reserve(count);
  const double span = std::log(static_cast<double>(max_k) /
                               static_cast<double>(min_k));
  for (std::size_t i = 0; i < count; ++i) {
    const double u = static_cast<double>(rng.Below(1u << 20)) / (1u << 20);
    const std::size_t k = std::min(
        max_k, static_cast<std::size_t>(std::llround(
                   static_cast<double>(min_k) * std::exp(u * span))));
    const std::uint64_t kind = isanc_only ? 0 : rng.Below(4);
    Request r;
    std::ostringstream line;
    std::string reply;
    if (kind <= 1) {
      r.verb = Request::Verb::kIsAnc;
      line << "ISANC " << k;
      reply = "OK " + std::to_string(k);
      for (std::size_t j = 0; j < k; ++j) {
        NodeId a, d;
        if (rng.Below(2) == 0) {
          // A true pair at a uniformly chosen distance up the chain.
          do {
            d = any_node();
          } while (d == 0);
          const std::vector<NodeId> chain = AncestorsOf(tree, d);
          a = chain[rng.Below(chain.size())];
        } else {
          a = any_node();
          d = any_node();
        }
        const bool truth = IsAncestorByWalk(tree, a, d);
        r.ancestors.push_back(a);
        r.descendants.push_back(d);
        r.positives += truth ? 1 : 0;
        line << ' ' << a << ' ' << d;
        reply += truth ? " 1" : " 0";
      }
    } else {
      const bool desc = kind == 2;
      r.verb = desc ? Request::Verb::kDesc : Request::Verb::kAnc;
      NodeId anchor;
      std::vector<NodeId> related;
      if (desc) {
        anchor = internal[rng.Below(internal.size())];
        const std::size_t size = subtree[static_cast<std::size_t>(anchor)];
        for (std::size_t j = 0; j < k / 2; ++j) {
          related.push_back(anchor + 1 +
                            static_cast<NodeId>(rng.Below(size - 1)));
        }
      } else {
        do {
          anchor = any_node();
        } while (tree.parent(anchor) == kInvalidNodeId);
        const std::vector<NodeId> chain = AncestorsOf(tree, anchor);
        for (std::size_t j = 0; j < k / 2; ++j) {
          related.push_back(chain[rng.Below(chain.size())]);
        }
      }
      std::vector<NodeId> candidates = related;
      while (candidates.size() < k) candidates.push_back(any_node());
      for (std::size_t j = candidates.size(); j > 1; --j) {
        std::swap(candidates[j - 1], candidates[rng.Below(j)]);
      }
      line << (desc ? "DESC " : "ANC ") << anchor << ' ' << k;
      std::vector<NodeId> matches;
      for (NodeId c : candidates) {
        line << ' ' << c;
        const bool truth = desc ? IsAncestorByWalk(tree, anchor, c)
                                : IsAncestorByWalk(tree, c, anchor);
        if (truth) matches.push_back(c);
      }
      r.ancestors = {anchor};
      r.descendants = std::move(candidates);
      r.positives = matches.size();
      reply = IdListReply(matches);
    }
    r.pairs = k;
    r.line = line.str();
    r.expected = HashReply(reply);
    r.checked = true;
    pool.push_back(std::move(r));
  }
  return pool;
}

}  // namespace perfbench
