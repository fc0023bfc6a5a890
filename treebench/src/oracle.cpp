#include "oracle.h"

#include <algorithm>

#include "trees/assignment.h"

namespace treebench {

using treenum::kNoNode;

treenum::UnrankedTree MirrorTree::Generate(size_t n, size_t num_labels,
                                           uint64_t shape_seed,
                                           treenum::Rng& rng) {
  treenum::Rng shape(shape_seed);
  treenum::UnrankedTree t(static_cast<Label>(rng.Index(num_labels)));
  std::vector<NodeId> ids{t.root()};
  ids.reserve(n);
  for (size_t i = 1; i < n; ++i) {
    NodeId p = ids[shape.Index(ids.size())];
    ids.push_back(t.AppendChild(p, static_cast<Label>(rng.Index(num_labels))));
  }
  Adopt(t);
  return t;
}

void MirrorTree::Adopt(const treenum::UnrankedTree& t) {
  parent_.assign(t.id_bound(), kNoNode);
  children_.assign(t.id_bound(), {});
  label_.assign(t.id_bound(), 0);
  alive_.clear();
  alive_pos_.assign(t.id_bound(), 0);
  root_ = t.root();
  std::vector<NodeId> stack{root_};
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    label_[n] = t.label(n);
    parent_[n] = t.parent(n);
    children_[n] = t.children(n);
    AddAlive(n);
    for (NodeId c : t.children(n)) stack.push_back(c);
  }
}

void MirrorTree::Grow(NodeId u) {
  if (u >= parent_.size()) {
    parent_.resize(u + 1, kNoNode);
    children_.resize(u + 1);
    label_.resize(u + 1, 0);
    alive_pos_.resize(u + 1, 0);
  }
}

void MirrorTree::AddAlive(NodeId u) {
  alive_pos_[u] = static_cast<uint32_t>(alive_.size());
  alive_.push_back(u);
}

void MirrorTree::RemoveAlive(NodeId u) {
  uint32_t pos = alive_pos_[u];
  NodeId last = alive_.back();
  alive_[pos] = last;
  alive_pos_[last] = pos;
  alive_.pop_back();
}

NodeId MirrorTree::PickLeaf(treenum::Rng& rng) const {
  NodeId n = Pick(rng);
  while (!children_[n].empty()) {
    n = children_[n][rng.Index(children_[n].size())];
  }
  return n;
}

bool MirrorTree::InSubtree(NodeId u, NodeId v) const {
  for (NodeId x = u; x != kNoNode; x = parent_[x]) {
    if (x == v) return true;
  }
  return false;
}

size_t MirrorTree::SubtreeSizeUpTo(NodeId v, size_t limit) const {
  size_t count = 0;
  std::vector<NodeId> stack{v};
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    if (++count > limit) return limit + 1;
    for (NodeId c : children_[n]) stack.push_back(c);
  }
  return count;
}

void MirrorTree::InsertFirstChild(NodeId n, NodeId u, Label l) {
  Grow(u);
  label_[u] = l;
  parent_[u] = n;
  children_[u].clear();
  children_[n].insert(children_[n].begin(), u);
  AddAlive(u);
}

void MirrorTree::InsertRightSibling(NodeId n, NodeId u, Label l) {
  Grow(u);
  label_[u] = l;
  NodeId p = parent_[n];
  parent_[u] = p;
  children_[u].clear();
  auto& sib = children_[p];
  sib.insert(std::find(sib.begin(), sib.end(), n) + 1, u);
  AddAlive(u);
}

void MirrorTree::Unlink(NodeId v) {
  auto& sib = children_[parent_[v]];
  sib.erase(std::find(sib.begin(), sib.end(), v));
}

void MirrorTree::DeleteLeaf(NodeId n) {
  Unlink(n);
  parent_[n] = kNoNode;
  RemoveAlive(n);
}

void MirrorTree::Move(NodeId v, NodeId dst, bool as_first_child) {
  Unlink(v);
  if (as_first_child) {
    parent_[v] = dst;
    children_[dst].insert(children_[dst].begin(), v);
  } else {
    NodeId p = parent_[dst];
    parent_[v] = p;
    auto& sib = children_[p];
    sib.insert(std::find(sib.begin(), sib.end(), dst) + 1, v);
  }
}

void MirrorTree::Apply(const treenum::Edit& e, NodeId u) {
  using K = treenum::Edit::Kind;
  switch (e.kind) {
    case K::kRelabel: Relabel(e.node, e.label); break;
    case K::kInsertFirstChild: InsertFirstChild(e.node, u, e.label); break;
    case K::kInsertRightSibling: InsertRightSibling(e.node, u, e.label); break;
    case K::kDeleteLeaf: DeleteLeaf(e.node); break;
  }
}

namespace {

Key Pair(NodeId x, NodeId y) {
  return (static_cast<Key>(x) << 32) | static_cast<Key>(y);
}

}  // namespace

std::vector<Key> ExpectedTree(const MirrorTree& t, const TreeQuerySpec& q) {
  using K = TreeQuerySpec::Kind;
  std::vector<Key> out;
  // Iterative DFS keeping the root-to-node path, so ancestor conditions are
  // read off the path directly.
  std::vector<NodeId> path;
  std::vector<size_t> next_child;
  path.push_back(t.root());
  next_child.push_back(0);
  bool any = false;
  auto visit = [&](NodeId n) {
    const Label l = t.label(n);
    switch (q.kind) {
      case K::kSelectLabel:
        if (l == q.a) out.push_back(n);
        break;
      case K::kSelectAll:
        out.push_back(n);
        break;
      case K::kMarkedAncestor:
        if (l == q.b) {
          for (size_t i = 0; i + 1 < path.size(); ++i) {
            if (t.label(path[i]) == q.a) {
              out.push_back(n);
              break;
            }
          }
        }
        break;
      case K::kDescendantPairs:
        if (l == q.b) {
          for (size_t i = 0; i + 1 < path.size(); ++i) {
            if (t.label(path[i]) == q.a) out.push_back(Pair(path[i], n));
          }
        }
        break;
      case K::kContainsLabel:
        any = any || l == q.a;
        break;
      case K::kAncestorAtDistance:
        if (path.size() > q.k && t.label(path[path.size() - 1 - q.k]) == q.a) {
          out.push_back(n);
        }
        break;
      case K::kChildOfLabel:
        if (l == q.b && path.size() >= 2 &&
            t.label(path[path.size() - 2]) == q.a) {
          out.push_back(n);
        }
        break;
      case K::kSelectLeaves:
        if (t.IsLeaf(n)) out.push_back(n);
        break;
      case K::kNextSibling: {
        const auto& ch = t.children(n);
        for (size_t i = 0; i + 1 < ch.size(); ++i) {
          if (t.label(ch[i]) == q.a && t.label(ch[i + 1]) == q.b) {
            out.push_back(Pair(ch[i], ch[i + 1]));
          }
        }
        break;
      }
    }
  };
  visit(t.root());
  while (!path.empty()) {
    const NodeId n = path.back();
    const auto& ch = t.children(n);
    if (next_child.back() < ch.size()) {
      const NodeId c = ch[next_child.back()++];
      path.push_back(c);
      next_child.push_back(0);
      visit(c);
    } else {
      path.pop_back();
      next_child.pop_back();
    }
  }
  if (q.kind == K::kContainsLabel && any) out.push_back(kEmptyAnswer);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Key> ExpectedAdjacent(const MirrorWord& w, Label a, Label b) {
  std::vector<Key> out;
  for (size_t i = 0; i + 1 < w.letters.size(); ++i) {
    if (w.letters[i] == a && w.letters[i + 1] == b) {
      out.push_back(Pair(w.ids[i], w.ids[i + 1]));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool DrainKeys(treenum::Engine::Cursor* cursor, size_t arity,
               std::vector<Key>* out, std::string* why) {
  out->clear();
  if (cursor == nullptr) return true;
  treenum::Assignment a;
  while (cursor->Next(&a)) {
    const auto& s = a.singletons();
    if (arity == 0 && s.empty()) {
      out->push_back(kEmptyAnswer);
    } else if (arity == 1 && s.size() == 1 && s[0].var == 0) {
      out->push_back(s[0].node);
    } else if (arity == 2 && s.size() == 2 && s[0].var == 0 &&
               s[1].var == 1) {
      out->push_back(Pair(s[0].node, s[1].node));
    } else {
      *why = "assignment " + a.ToString() + " has the wrong shape";
      return false;
    }
  }
  std::sort(out->begin(), out->end());
  auto dup = std::adjacent_find(out->begin(), out->end());
  if (dup != out->end()) {
    *why = "duplicate answer " + std::to_string(*dup);
    return false;
  }
  return true;
}

bool SameKeys(const std::vector<Key>& got, const std::vector<Key>& want,
              std::string* why) {
  if (got == want) return true;
  size_t i = 0;
  while (i < got.size() && i < want.size() && got[i] == want[i]) ++i;
  *why = "got " + std::to_string(got.size()) + " answers, want " +
         std::to_string(want.size()) + "; first difference at rank " +
         std::to_string(i);
  return false;
}

}  // namespace treebench
