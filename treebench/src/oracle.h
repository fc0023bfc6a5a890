// The benchmark's own model of the inputs and its own answers: a mirror
// tree and a mirror word updated alongside the documents, and direct scans
// over them that compute what each registered query must return. None of
// this goes through treenum's automata, circuits or enumeration, so
// SameKeys compares the program's answers with an independent computation.
#ifndef TREEBENCH_ORACLE_H_
#define TREEBENCH_ORACLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "trees/unranked_tree.h"
#include "util/random.h"

namespace treebench {

using treenum::Label;
using treenum::NodeId;

/// An answer packed for comparison: one node, or (x << 32) | y for pairs,
/// or kEmptyAnswer for the empty assignment of a Boolean query.
using Key = uint64_t;
inline constexpr Key kEmptyAnswer = ~Key{0};

class MirrorTree {
 public:
  /// Random recursive tree: node i attaches below a uniformly chosen
  /// earlier node drawn from `shape_seed`; labels are drawn from `rng`.
  /// Returns the treenum tree with the same ids.
  ///
  /// The workloads pass a constant shape seed, so --seed changes labels and
  /// scripts but not the shape: pipeline memory differs by up to 45% between
  /// random shapes of the same size and labels, which would make peak RSS a
  /// property of the seed rather than of the code.
  treenum::UnrankedTree Generate(size_t n, size_t num_labels,
                                 uint64_t shape_seed, treenum::Rng& rng);
  /// Adopts an existing treenum tree (ids and child order are copied).
  void Adopt(const treenum::UnrankedTree& t);

  size_t size() const { return alive_.size(); }
  NodeId root() const { return root_; }
  Label label(NodeId n) const { return label_[n]; }
  NodeId parent(NodeId n) const { return parent_[n]; }
  const std::vector<NodeId>& children(NodeId n) const { return children_[n]; }
  bool IsLeaf(NodeId n) const { return children_[n].empty(); }
  /// Uniformly random live node.
  NodeId Pick(treenum::Rng& rng) const { return alive_[rng.Index(alive_.size())]; }
  /// A leaf reached by a random walk down from a uniformly random node.
  NodeId PickLeaf(treenum::Rng& rng) const;
  /// True iff `u` lies in the subtree of `v`.
  bool InSubtree(NodeId u, NodeId v) const;
  /// Subtree size, or limit + 1 if it exceeds `limit`.
  size_t SubtreeSizeUpTo(NodeId v, size_t limit) const;

  void Relabel(NodeId n, Label l) { label_[n] = l; }
  void InsertFirstChild(NodeId n, NodeId u, Label l);
  void InsertRightSibling(NodeId n, NodeId u, Label l);
  void DeleteLeaf(NodeId n);
  void Move(NodeId v, NodeId dst, bool as_first_child);
  /// Applies a treenum Edit whose new node (for inserts) is `u`.
  void Apply(const treenum::Edit& e, NodeId u);

 private:
  void Grow(NodeId u);
  void AddAlive(NodeId u);
  void RemoveAlive(NodeId u);
  void Unlink(NodeId v);

  NodeId root_ = treenum::kNoNode;
  std::vector<NodeId> parent_;
  std::vector<std::vector<NodeId>> children_;
  std::vector<Label> label_;
  std::vector<NodeId> alive_;
  std::vector<uint32_t> alive_pos_;
};

/// The benchmark's description of a library query, from which it computes
/// the expected answers by scanning the mirror.
struct TreeQuerySpec {
  enum class Kind {
    kSelectLabel,       // a
    kSelectAll,
    kMarkedAncestor,    // a = marked, b = special
    kDescendantPairs,   // a, b
    kContainsLabel,     // a
    kAncestorAtDistance,  // a, k
    kChildOfLabel,      // a, b
    kSelectLeaves,
    kNextSibling,       // a, b
  };
  Kind kind;
  Label a = 0;
  Label b = 0;
  size_t k = 0;
  std::string name;
};

/// Sorted expected answers of `q` on `t`.
std::vector<Key> ExpectedTree(const MirrorTree& t, const TreeQuerySpec& q);

/// Mirror word: letters and the stable position ids the document assigned.
struct MirrorWord {
  std::vector<Label> letters;
  std::vector<NodeId> ids;
};
/// Sorted (id[i], id[i+1]) for every i with letters a, b at i, i + 1.
std::vector<Key> ExpectedAdjacent(const MirrorWord& w, Label a, Label b);

/// Drains `cursor` into sorted keys; returns false if it produced an
/// assignment that is not of the expected arity or a duplicate.
bool DrainKeys(treenum::Engine::Cursor* cursor, size_t arity,
               std::vector<Key>* out, std::string* why);

/// Compares enumerated keys with expected ones; fills `why` on mismatch.
bool SameKeys(const std::vector<Key>& got, const std::vector<Key>& want,
              std::string* why);

}  // namespace treebench

#endif  // TREEBENCH_ORACLE_H_
