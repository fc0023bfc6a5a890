// Duplicate-free enumeration of S(Γ) with provenance (Algorithm 2,
// Theorem 5.3), as a pull-style cursor.
//
// For each interesting box produced by box-enum, the cursor first emits the
// assignments of related var-gates, then recursively enumerates the left
// and right factors of the related ×-gates, combining them and computing
// the provenance Prov(S, Γ) = {g ∈ Γ | S ∈ S(g)} that drives the recursive
// filtering (lines 8-16 of Algorithm 2).
//
// A cursor keeps its child cursors and scratch across boxes and answers:
// the left and right sub-cursors are rewound with Reset() instead of being
// rebuilt per left answer, provenance accumulates in one flat buffer, and
// callers reuse their EnumOutput. After warm-up a drain touches the heap
// only when some buffer meets a larger shape than before.
#ifndef TREENUM_ENUMERATION_ENUMERATE_H_
#define TREENUM_ENUMERATION_ENUMERATE_H_

#include <memory>
#include <vector>

#include "circuit/circuit.h"
#include "enumeration/box_enum.h"
#include "enumeration/index.h"
#include "trees/assignment.h"

namespace treenum {

/// One enumerated element of S(Γ): the assignment as per-leaf variable-mask
/// contributions, plus its provenance as a bitset over Γ positions.
struct EnumOutput {
  std::vector<std::pair<VarMask, NodeId>> contributions;
  std::vector<uint64_t> provenance;

  Assignment ToAssignment() const;
  /// ToAssignment into `out`, reusing its storage.
  void AssignTo(Assignment* out) const;
};

/// Which box-enum implementation the cursor uses.
enum class BoxEnumMode { kIndexed, kNaive };

/// Cursor enumerating S(Γ) without duplicates for a boxed set Γ (dense
/// ∪-gate indices at `box`). `index` may be null in kNaive mode.
class AssignmentCursor {
 public:
  AssignmentCursor(const AssignmentCircuit* circuit, const EnumIndex* index,
                   BoxEnumMode mode, TermNodeId box,
                   std::vector<uint32_t> gamma);

  /// Produces the next assignment; false when exhausted.
  bool Next(EnumOutput* out);

  /// Rewinds to a fresh enumeration of `gamma` at `box` (same circuit,
  /// index and mode), keeping every warm buffer and child cursor.
  void Reset(TermNodeId box, const std::vector<uint32_t>& gamma);

  /// Elementary-step counter (delay accounting).
  size_t steps() const;

 private:
  enum class Stage { kNextBox, kEmitVars, kPullLeft, kPullRight, kDone };

  std::unique_ptr<BoxEnumCursor> MakeBoxEnum(TermNodeId box,
                                             const std::vector<uint32_t>& g);
  void PrepareBox();
  /// The provenance accumulator behind `*slot`, claiming a zeroed one on
  /// first use.
  uint64_t* AccSlot(int32_t* slot);
  const uint64_t* Acc(int32_t slot) const {
    return prov_acc_.data() + static_cast<size_t>(slot) * prov_words_;
  }
  void SetupLeft();
  void SetupRight();
  /// Rewinds `*child` to (box, gamma), creating it on first use.
  void ResetChild(std::unique_ptr<AssignmentCursor>* child, TermNodeId box,
                  const std::vector<uint32_t>& gamma);

  const AssignmentCircuit* circuit_;
  const EnumIndex* index_;
  BoxEnumMode mode_;
  size_t prov_words_;

  std::unique_ptr<BoxEnumCursor> box_enum_;
  Stage stage_ = Stage::kNextBox;

  // Current interesting box.
  BoxRelation cur_;
  // Non-empty-row scratch for PrepareBox (reused across boxes).
  std::vector<uint32_t> rows_scratch_;
  // Provenance accumulators, prov_words_ words per slot, and the slot of
  // each var-mask index / local ×-gate id of the current box (-1: none).
  std::vector<uint64_t> prov_acc_;
  std::vector<int32_t> var_slot_;
  std::vector<int32_t> cross_slot_;
  // Var agenda: the related var-mask indices, ascending.
  std::vector<uint32_t> vars_;
  size_t var_pos_ = 0;
  // Cross agenda: the related local ×-gate ids, ascending.
  std::vector<uint32_t> crosses_;
  // Left recursion.
  std::vector<uint32_t> gamma_left_;
  std::vector<int32_t> left_pos_;  // left child dense ∪-gate -> ΓL position
  std::unique_ptr<AssignmentCursor> left_cursor_;
  EnumOutput left_out_;
  // Right recursion (depends on the current left output).
  std::vector<uint32_t> crosses_left_;  // G×': crosses compatible with SL
  std::vector<uint32_t> gamma_right_;
  std::vector<int32_t> right_pos_;
  std::unique_ptr<AssignmentCursor> right_cursor_;
  EnumOutput right_out_;
  // Whether the child cursors belong to the current enumeration (a Reset
  // keeps them for reuse, but their steps no longer count).
  bool left_live_ = false;
  bool right_live_ = false;

  size_t local_steps_ = 0;
};

/// Convenience: run a cursor to completion and return all assignments
/// (sorted). Used by tests and the recompute baselines.
std::vector<Assignment> CollectAll(AssignmentCursor& cursor);

}  // namespace treenum

#endif  // TREENUM_ENUMERATION_ENUMERATE_H_
