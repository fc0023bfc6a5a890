// EnumerationPipeline — the per-query owner of all derived enumeration
// state.
//
// The paper's machinery (Theorem 8.1 / Corollary 8.4) is one pipeline
// instantiated over different encodings: a balanced forest-algebra term
// (tree `DynamicEncoding` or word AVL `WordEncoding`) feeds an assignment
// circuit (Lemma 3.7), a jump index (Lemma 6.3), and optionally dynamic
// run counts. This class concentrates the maintenance logic that
// TreeEnumerator and WordEnumerator previously duplicated: consuming the
// `UpdateResult` of any encoding backend and refreshing circuit boxes,
// index entries, and count vectors along the changed path (Lemma 7.3).
//
// A pipeline does not own its term: the `DynamicDocument` layer
// (core/document.h) owns one encoding and fans each edit's UpdateResult
// out to every pipeline registered on it — possibly from worker threads,
// which is safe because during a refresh the pipelines share only the
// already-mutated, now-immutable term, and everything a refresh writes
// (circuit arena, index pools, counts) is pipeline-private. Batch
// *coalescing* also lives in the document (it depends only on the term,
// so it is computed once per commit, not once per query); the pipeline
// exposes ApplyCoalesced() to consume the merged changed-box set.
#ifndef TREENUM_CORE_PIPELINE_H_
#define TREENUM_CORE_PIPELINE_H_

#include <memory>
#include <utility>
#include <vector>

#include "automata/homogenize.h"
#include "circuit/circuit.h"
#include "counting/run_count.h"
#include "core/engine.h"
#include "enumeration/enumerate.h"
#include "enumeration/index.h"
#include "falgebra/update.h"

namespace treenum {

/// The per-query owner of all derived enumeration state — assignment
/// circuit, jump index, optional run counts — over a shared term it does
/// not own (see the file comment above for the full contract).
class EnumerationPipeline {
 public:
  /// Builds the circuit (and, in kIndexed mode, the jump index) over
  /// `term`, which must outlive the pipeline and is mutated externally by
  /// the encoding backend that produces the UpdateResults fed to Apply().
  /// The automaton is shared, not owned: the document's query registry
  /// keeps the canonical `HomogenizedTva` alive and hands the same object
  /// to every pipeline built for it — including the re-admission path,
  /// where an evicted query's pipeline is rebuilt over the current term
  /// from the retained automaton without re-translating or re-homogenizing
  /// the query.
  EnumerationPipeline(const Term* term,
                      std::shared_ptr<const HomogenizedTva> homog,
                      BoxEnumMode mode);

  EnumerationPipeline(const EnumerationPipeline&) = delete;
  EnumerationPipeline& operator=(const EnumerationPipeline&) = delete;

  // ---- Introspection ----

  /// The shared term this pipeline's boxes are built over.
  const Term& term() const { return *term_; }
  /// The homogenized (canonical) binary TVA driving the circuit.
  const BinaryTva& tva() const { return homog_->tva; }
  /// Per-state 0-/1-state classification of tva() (see HomogenizedTva).
  const std::vector<uint8_t>& state_kinds() const { return homog_->kind; }
  /// Width of the circuit (= trimmed, homogenized |Q'|).
  size_t width() const { return homog_->tva.num_states(); }
  /// The canonical automaton, shared with the owning registry entry.
  const std::shared_ptr<const HomogenizedTva>& automaton() const {
    return homog_;
  }
  /// The assignment circuit (Lemma 3.7) maintained over term().
  const AssignmentCircuit& circuit() const { return circuit_; }
  /// The jump index (Lemma 6.3); empty unless mode() is kIndexed.
  const EnumIndex& index() const { return index_; }
  /// Box-enumeration mode this pipeline was built for.
  BoxEnumMode mode() const { return mode_; }
  /// Heap bytes of the circuit's and the index's stores and pools, live
  /// and retired. The constructor frees what its build retired, so a fresh
  /// pipeline reports retired == 0; refreshes after publication retire
  /// buffers again (see util/cow_store.h).
  StoreBytes StorageBytes() const;

  // ---- Dynamic counting (optional; see counting/run_count.h) ----

  /// Builds the run-count vectors (O(size * poly(w)) once); afterwards
  /// every refresh also maintains them along the changed path.
  void EnableCounting();
  /// True once EnableCounting() has run.
  bool counting_enabled() const { return counter_ != nullptr; }
  /// Accepting (valuation, run) pairs mod 2^64; requires EnableCounting().
  uint64_t AcceptingRuns() const;

  // ---- Incremental maintenance ----

  /// Consumes one encoding UpdateResult immediately: releases the freed
  /// boxes and refreshes the changed ones in the given (children-first)
  /// order.
  UpdateStats Apply(const UpdateResult& result);

  /// Consumes a document-coalesced transaction: `dead_freed` are the term
  /// ids dead at commit (a slot freed mid-batch and re-allocated by a
  /// later edit is alive and appears in `ordered_changed` instead);
  /// `ordered_changed` are the surviving changed ids, deepest first, each
  /// refreshed exactly once. Pre-grows the circuit/index pools for the
  /// whole transaction so the refresh loop never re-grows a pool tail.
  UpdateStats ApplyCoalesced(const std::vector<TermNodeId>& dead_freed,
                             const std::vector<TermNodeId>& ordered_changed);

  /// Set by the owning document while an edit transaction is open: term
  /// nodes created mid-batch have no boxes until commit, so querying is
  /// unsupported — the query surface asserts in debug builds and reports
  /// no answers in release builds.
  void set_update_pending(bool pending) { update_pending_ = pending; }
  /// True while the owning document has an open batch.
  bool update_pending() const { return update_pending_; }

  // ---- Query surface (invalid while update_pending()) ----

  /// True iff some final 0-state's root gate is ⊤ (the empty assignment
  /// satisfies the query).
  bool EmptyAssignmentSatisfies() const;
  /// Dense ∪-gate indices of the final 1-states at the root box.
  std::vector<uint32_t> FinalGamma() const;
  /// O(w) Boolean answer.
  bool HasAnswer() const;
  /// Cursor over the non-empty satisfying assignments, or null when the
  /// root boxed set is empty. (Callers handle EmptyAssignmentSatisfies.)
  std::unique_ptr<AssignmentCursor> MakeRootCursor() const;
  /// Type-erased cursor over *all* satisfying assignments (including the
  /// empty one) — the shared implementation behind Engine::MakeCursor.
  std::unique_ptr<Engine::Cursor> MakeEngineCursor() const;
  /// All satisfying assignments (sorted), including the empty one.
  std::vector<Assignment> EnumerateAll() const;

  // ---- Snapshot query surface ----
  //
  // The same queries evaluated at an explicit root — the pinned root of a
  // published Snapshot (core/snapshot.h) — instead of the term's current
  // root. No update_pending gate: a pinned version is frozen, its node
  // versions are never mutated or freed and its boxes are never rebuilt in
  // place, so these run safely on reader threads *concurrently with writer
  // edits and the refresh fan-out*. The root must be a pinned snapshot root
  // published no earlier than this pipeline was built (the document checks
  // the snapshot epoch against min_snapshot_epoch()).

  /// EmptyAssignmentSatisfies at a pinned snapshot root.
  bool EmptyAssignmentSatisfiesAt(TermNodeId root) const;
  /// FinalGamma at a pinned snapshot root.
  std::vector<uint32_t> FinalGammaAt(TermNodeId root) const;
  /// HasAnswer at a pinned snapshot root.
  bool HasAnswerAt(TermNodeId root) const;
  /// MakeRootCursor at a pinned snapshot root.
  std::unique_ptr<AssignmentCursor> MakeRootCursorAt(TermNodeId root) const;
  /// MakeEngineCursor at a pinned snapshot root.
  std::unique_ptr<Engine::Cursor> MakeEngineCursorAt(TermNodeId root) const;
  /// EnumerateAll at a pinned snapshot root.
  std::vector<Assignment> EnumerateAllAt(TermNodeId root) const;

  /// Oldest snapshot epoch this pipeline can serve: the one current when it
  /// was built (older versions contain node ids it never built boxes for).
  uint64_t min_snapshot_epoch() const { return min_snapshot_epoch_; }

  /// Releases the boxes of term-node versions reclaimed when a retired
  /// snapshot was drained — the deferred counterpart of an UpdateResult's
  /// freed list, broadcast by the document before the next edit.
  void ReleaseBoxes(const std::vector<TermNodeId>& freed);

 private:
  void RefreshBox(TermNodeId id);
  void ReleaseBox(TermNodeId id);

  const Term* term_;
  std::shared_ptr<const HomogenizedTva> homog_;
  AssignmentCircuit circuit_;
  EnumIndex index_;
  BoxEnumMode mode_;
  std::unique_ptr<RunCounter> counter_;
  uint64_t min_snapshot_epoch_ = 0;
  bool update_pending_ = false;
};

}  // namespace treenum

#endif  // TREENUM_CORE_PIPELINE_H_
