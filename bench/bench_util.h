// Shared workload generators and helpers for the benchmark suite. Each
// bench binary regenerates one experiment of EXPERIMENTS.md.
#ifndef TREENUM_BENCH_BENCH_UTIL_H_
#define TREENUM_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <utility>
#include <vector>

#include "automata/query_library.h"
#include "core/engine.h"
#include "core/tree_enumerator.h"
#include "trees/unranked_tree.h"
#include "util/alloc_gauge.h"
#include "util/random.h"

namespace treenum {
namespace bench {

/// Allocation-count gauge (util/alloc_gauge.h) for proving hot paths are
/// allocation-free: wrap a timed region in an AllocGauge and report
/// `per(items)` as a counter (e.g. allocs_per_edit). Counts are nonzero
/// only in binaries linked against treenum_alloc_gauge (bench_updates is);
/// elsewhere the gauge reads 0 and `active()` says so.
class AllocGauge {
 public:
  bool active() const { return AllocGaugeActive(); }
  uint64_t allocs() const { return scope_.allocs(); }
  double per(size_t items) const {
    return items == 0 ? 0.0
                      : static_cast<double>(scope_.allocs()) /
                            static_cast<double>(items);
  }

 private:
  AllocGaugeScope scope_;
};

inline constexpr uint64_t kSeed = 0xBADC0FFEE;

/// Random tree workload with 3 labels (a/b/c) used across experiments.
inline UnrankedTree MakeTree(size_t n) {
  Rng rng(kSeed + n);
  return RandomTree(n, 3, rng);
}

/// Path-shaped adversarial workload.
inline UnrankedTree MakePath(size_t n) {
  Rng rng(kSeed + n);
  return PathTree(n, 3, rng);
}

/// The standard benchmark query: marked-ancestor (4 states, nontrivial
/// vertical information flow, answers sparse).
inline UnrankedTva StandardQuery() { return QueryMarkedAncestor(3, 1, 2); }

/// Candidate edit targets of a tree that the edits grow and shrink: new
/// nodes are Add()ed, deleted ones are dropped lazily when drawn. Picking
/// is O(1) expected — a full PreorderNodes() scan per edit would add an
/// O(n) term inside the timed region and mask the logarithmic update
/// shapes the experiments measure.
class NodePool {
 public:
  explicit NodePool(const UnrankedTree& tree) : nodes_(tree.PreorderNodes()) {}

  void Add(NodeId n) { nodes_.push_back(n); }

  /// A uniformly drawn live node of `tree`.
  NodeId Pick(const UnrankedTree& tree, Rng& rng) {
    while (true) {
      size_t i = rng.Index(nodes_.size());
      NodeId n = nodes_[i];
      if (tree.IsAlive(n)) return n;
      nodes_[i] = nodes_.back();  // drop stale (deleted) entries lazily
      nodes_.pop_back();
    }
  }

  /// A non-root leaf of `tree`, drawn by retrying Pick, or the root when
  /// the tree has no other node. Retrying makes every chosen delete fire,
  /// so a script's inserts and deletes balance and the tree keeps its size
  /// however many edits a calibrated benchmark loop runs.
  NodeId PickLeaf(const UnrankedTree& tree, Rng& rng) {
    if (tree.size() < 2) return tree.root();
    while (true) {
      NodeId n = Pick(tree, rng);
      if (n != tree.root() && tree.IsLeaf(n)) return n;
    }
  }

 private:
  std::vector<NodeId> nodes_;
};

/// Random-edit driver for a TreeEnumerator, drawing targets from a
/// NodePool.
class EditDriver {
 public:
  EditDriver(TreeEnumerator& e, uint64_t seed)
      : e_(e), rng_(seed), pool_(e.tree()) {}

  /// One edit: a relabel, an insert (first child or right sibling) or a
  /// leaf delete, a third each, so the tree keeps its size in expectation.
  UpdateStats Step() {
    NodeId n = Pick();
    Label l = static_cast<Label>(rng_.Index(3));
    switch (rng_.Index(3)) {
      case 1: {
        NodeId u;
        UpdateStats s = rng_.Index(2) == 0 || n == e_.tree().root()
                            ? e_.InsertFirstChild(n, l, &u)
                            : e_.InsertRightSibling(n, l, &u);
        pool_.Add(u);
        return s;
      }
      case 2: {
        NodeId leaf = pool_.PickLeaf(e_.tree(), rng_);
        if (leaf != e_.tree().root()) return e_.DeleteLeaf(leaf);
        break;
      }
      default:
        break;
    }
    return e_.Relabel(n, l);
  }

  UpdateStats RelabelStep() {
    return e_.Relabel(Pick(), static_cast<Label>(rng_.Index(3)));
  }

 private:
  NodeId Pick() { return pool_.Pick(e_.tree(), rng_); }

  TreeEnumerator& e_;
  Rng rng_;
  NodePool pool_;
};

/// Random-edit driver for any Engine backend: the candidate pool is kept in
/// sync with a mirror tree (same edits => same NodeIds on every backend),
/// so one driver instance can feed engines that expose no tree() accessor.
/// Emits through Engine::ApplyEdit, i.e. the shared update surface.
class EngineEditDriver {
 public:
  EngineEditDriver(Engine& e, UnrankedTree mirror, uint64_t seed)
      : e_(e), mirror_(std::move(mirror)), rng_(seed), pool_(mirror_) {}

  /// One edit, mixed like EditDriver::Step.
  UpdateStats Step() {
    NodeId n = Pick();
    Label l = static_cast<Label>(rng_.Index(3));
    switch (rng_.Index(3)) {
      case 1: {
        const bool first = rng_.Index(2) == 0 || n == mirror_.root();
        if (first) {
          mirror_.InsertFirstChild(n, l);
        } else {
          mirror_.InsertRightSibling(n, l);
        }
        NodeId u;
        UpdateStats s = e_.ApplyEdit(first ? Edit::InsertFirstChild(n, l)
                                           : Edit::InsertRightSibling(n, l),
                                     &u);
        pool_.Add(u);
        return s;
      }
      case 2: {
        NodeId leaf = pool_.PickLeaf(mirror_, rng_);
        if (leaf == mirror_.root()) break;
        mirror_.DeleteLeaf(leaf);
        return e_.ApplyEdit(Edit::DeleteLeaf(leaf));
      }
      default:
        break;
    }
    mirror_.Relabel(n, l);
    return e_.ApplyEdit(Edit::Relabel(n, l));
  }

  /// Relabel-only variant: the paper's cheapest update (pure path
  /// recomputation, never a rebalance) — the steady-state workload for the
  /// arena storage's allocation-free refresh path.
  UpdateStats RelabelStep() {
    NodeId n = Pick();
    Label l = static_cast<Label>(rng_.Index(3));
    mirror_.Relabel(n, l);
    return e_.ApplyEdit(Edit::Relabel(n, l));
  }

 private:
  NodeId Pick() { return pool_.Pick(mirror_, rng_); }

  Engine& e_;
  UnrankedTree mirror_;
  Rng rng_;
  NodePool pool_;
};

/// Mirror-driven edit scripter emitting Edit values (instead of applying
/// them like EngineEditDriver), so one script can drive a DynamicDocument
/// and a fleet of independent engines identically.
class EditScript {
 public:
  EditScript(UnrankedTree mirror, uint64_t seed, size_t num_labels = 3)
      : mirror_(std::move(mirror)),
        rng_(seed),
        num_labels_(num_labels),
        pool_(mirror_) {}

  /// One edit, mixed like EditDriver::Step.
  Edit Next() {
    NodeId n = Pick();
    Label l = static_cast<Label>(rng_.Index(num_labels_));
    switch (rng_.Index(3)) {
      case 1:
        if (rng_.Index(2) == 0 || n == mirror_.root()) {
          pool_.Add(mirror_.InsertFirstChild(n, l));
          return Edit::InsertFirstChild(n, l);
        }
        pool_.Add(mirror_.InsertRightSibling(n, l));
        return Edit::InsertRightSibling(n, l);
      case 2: {
        NodeId leaf = pool_.PickLeaf(mirror_, rng_);
        if (leaf == mirror_.root()) break;
        mirror_.DeleteLeaf(leaf);
        return Edit::DeleteLeaf(leaf);
      }
      default:
        break;
    }
    mirror_.Relabel(n, l);
    return Edit::Relabel(n, l);
  }

  Edit NextRelabel() {
    NodeId n = Pick();
    Label l = static_cast<Label>(rng_.Index(num_labels_));
    mirror_.Relabel(n, l);
    return Edit::Relabel(n, l);
  }

 private:
  NodeId Pick() { return pool_.Pick(mirror_, rng_); }

  UnrankedTree mirror_;
  Rng rng_;
  size_t num_labels_;
  NodePool pool_;
};

/// Machine-readable benchmark output: appends one JSON object per call to
/// the file named by $TREENUM_BENCH_JSON (no-op when unset), so CI can
/// collect a BENCH_*.json trajectory across PRs without parsing console
/// output. google-benchmark invokes each benchmark several times while
/// calibrating iteration counts, so the file holds several lines per
/// (bench, args) key; the final measured run comes last — consumers keep
/// the last line per key (or the one with the largest "iterations" field,
/// which benches should include). The binaries additionally support
/// --benchmark_format=json for the full report.
inline void EmitJson(
    const char* bench,
    std::initializer_list<std::pair<const char*, double>> fields) {
  const char* path = std::getenv("TREENUM_BENCH_JSON");
  if (!path) return;
  std::FILE* f = std::fopen(path, "a");
  if (!f) return;
  std::fprintf(f, "{\"bench\":\"%s\"", bench);
  for (const auto& [key, value] : fields) {
    std::fprintf(f, ",\"%s\":%.6g", key, value);
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
}

/// Drains a cursor; returns the number of answers.
inline size_t Drain(const TreeEnumerator& e) {
  TreeEnumerator::Cursor c = e.Enumerate();
  Assignment a;
  size_t n = 0;
  while (c.Next(&a)) ++n;
  return n;
}

}  // namespace bench
}  // namespace treenum

#endif  // TREENUM_BENCH_BENCH_UTIL_H_
