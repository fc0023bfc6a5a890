// Valuations and assignments (§2 of the paper).
//
// A query result is an X-assignment: a set of singletons <Z : n> pairing a
// second-order variable Z with a tree node n. For MSO queries with free
// first-order variables, assignments have fixed cardinality |X|.
#ifndef TREENUM_TREES_ASSIGNMENT_H_
#define TREENUM_TREES_ASSIGNMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "trees/unranked_tree.h"

namespace treenum {

/// Index of a (second-order) query variable in the variable set X.
using VarId = uint32_t;

/// A singleton <Z : n>: variable Z holds node n.
struct Singleton {
  VarId var;
  NodeId node;

  friend bool operator==(const Singleton& a, const Singleton& b) {
    return a.var == b.var && a.node == b.node;
  }
  friend bool operator!=(const Singleton& a, const Singleton& b) {
    return !(a == b);
  }
  friend bool operator<(const Singleton& a, const Singleton& b) {
    return a.var != b.var ? a.var < b.var : a.node < b.node;
  }
  friend bool operator>(const Singleton& a, const Singleton& b) {
    return b < a;
  }
  friend bool operator<=(const Singleton& a, const Singleton& b) {
    return !(b < a);
  }
  friend bool operator>=(const Singleton& a, const Singleton& b) {
    return !(a < b);
  }
};

/// An assignment: a set of singletons, kept sorted for canonical form.
class Assignment {
 public:
  Assignment() = default;
  explicit Assignment(std::vector<Singleton> singletons);

  /// Adds a singleton (does not re-normalize; call Normalize() after bulk
  /// insertion or use the sorted constructor).
  void Add(Singleton s) { singletons_.push_back(s); }
  /// Empties the assignment, keeping its storage for reuse.
  void Clear() { singletons_.clear(); }

  /// Sorts and deduplicates, producing the canonical representation.
  void Normalize();

  const std::vector<Singleton>& singletons() const { return singletons_; }
  size_t size() const { return singletons_.size(); }
  bool empty() const { return singletons_.empty(); }

  /// Merges two assignments over disjoint variables/nodes (the × operation
  /// of set circuits); result is normalized if both inputs are.
  static Assignment DisjointUnion(const Assignment& a, const Assignment& b);

  std::string ToString() const;

  friend bool operator==(const Assignment& a, const Assignment& b) {
    return a.singletons_ == b.singletons_;
  }
  friend bool operator!=(const Assignment& a, const Assignment& b) {
    return !(a == b);
  }
  friend bool operator<(const Assignment& a, const Assignment& b) {
    return a.singletons_ < b.singletons_;
  }
  friend bool operator>(const Assignment& a, const Assignment& b) {
    return b < a;
  }
  friend bool operator<=(const Assignment& a, const Assignment& b) {
    return !(b < a);
  }
  friend bool operator>=(const Assignment& a, const Assignment& b) {
    return !(a < b);
  }

 private:
  std::vector<Singleton> singletons_;
};

/// Hash functor so assignment sets can be stored in unordered containers
/// (used by tests and the naive baseline engine).
struct AssignmentHash {
  size_t operator()(const Assignment& a) const;
};

}  // namespace treenum

#endif  // TREENUM_TREES_ASSIGNMENT_H_
