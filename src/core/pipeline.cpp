#include "core/pipeline.h"

#include <algorithm>
#include <cassert>

namespace treenum {

EnumerationPipeline::EnumerationPipeline(
    const Term* term, std::shared_ptr<const HomogenizedTva> homog,
    BoxEnumMode mode)
    : term_(term),
      homog_(std::move(homog)),
      circuit_(term, &homog_->tva, &homog_->kind),
      index_(&circuit_),
      mode_(mode),
      // The snapshot current at build time captured epoch() - 1 (Publish
      // captures, then bumps); it and everything newer is servable. Epoch 0
      // means no snapshot layer is attached (bare-term pipelines in tests).
      min_snapshot_epoch_(term->epoch() == 0 ? 0 : term->epoch() - 1) {
  // Nothing outside this constructor can see the pipeline yet, so no reader
  // holds a pointer into its stores: the buffers retired while building are
  // garbage. Dropping the circuit's before the index build lowers the peak.
  circuit_.BuildAll();
  circuit_.DropRetired();
  if (mode_ == BoxEnumMode::kIndexed) {
    index_.BuildAll();
    index_.DropRetired();
  }
}

StoreBytes EnumerationPipeline::StorageBytes() const {
  StoreBytes b = circuit_.StorageBytes();
  b += index_.StorageBytes();
  return b;
}

void EnumerationPipeline::EnableCounting() {
  if (counter_) return;
  counter_ = std::make_unique<RunCounter>(&circuit_);
  counter_->BuildAll();
}

uint64_t EnumerationPipeline::AcceptingRuns() const {
  assert(!update_pending_ && "querying during an open batch is unsupported");
  if (update_pending_) return 0;
  return counter_ ? counter_->TotalAcceptingRuns() : 0;
}

void EnumerationPipeline::RefreshBox(TermNodeId id) {
  circuit_.RebuildBox(id);
  if (mode_ == BoxEnumMode::kIndexed) index_.RebuildBoxIndex(id);
  if (counter_) counter_->RebuildBoxCounts(id);
}

void EnumerationPipeline::ReleaseBox(TermNodeId id) {
  circuit_.FreeBox(id);
  if (mode_ == BoxEnumMode::kIndexed) index_.FreeBoxIndex(id);
  if (counter_) counter_->FreeBoxCounts(id);
}

UpdateStats EnumerationPipeline::Apply(const UpdateResult& result) {
  UpdateStats stats;
  stats.edits_applied = 1;
  stats.rebuilt_size = result.rebuilt_size;
  for (TermNodeId id : result.freed) ReleaseBox(id);
  for (TermNodeId id : result.changed_bottom_up) RefreshBox(id);
  stats.boxes_recomputed = result.changed_bottom_up.size();
  return stats;
}

UpdateStats EnumerationPipeline::ApplyCoalesced(
    const std::vector<TermNodeId>& dead_freed,
    const std::vector<TermNodeId>& ordered_changed) {
  UpdateStats stats;
  for (TermNodeId id : dead_freed) ReleaseBox(id);
  circuit_.ReserveForRebuild(ordered_changed.size());
  if (mode_ == BoxEnumMode::kIndexed) {
    index_.ReserveForRebuild(ordered_changed.size());
  }
  for (TermNodeId id : ordered_changed) RefreshBox(id);
  stats.boxes_recomputed = ordered_changed.size();
  return stats;
}

void EnumerationPipeline::ReleaseBoxes(const std::vector<TermNodeId>& freed) {
  for (TermNodeId id : freed) ReleaseBox(id);
}

bool EnumerationPipeline::EmptyAssignmentSatisfies() const {
  assert(!update_pending_ && "querying during an open batch is unsupported");
  // Release-mode safety: boxes of term nodes created mid-batch do not
  // exist until commit, so reading the root box would be out of bounds.
  if (update_pending_) return false;
  return EmptyAssignmentSatisfiesAt(term_->root());
}

std::vector<uint32_t> EnumerationPipeline::FinalGamma() const {
  assert(!update_pending_ && "querying during an open batch is unsupported");
  if (update_pending_) return {};
  return FinalGammaAt(term_->root());
}

bool EnumerationPipeline::HasAnswer() const {
  if (EmptyAssignmentSatisfies()) return true;
  return !FinalGamma().empty();
}

std::unique_ptr<AssignmentCursor> EnumerationPipeline::MakeRootCursor() const {
  assert(!update_pending_ && "querying during an open batch is unsupported");
  if (update_pending_) return nullptr;
  return MakeRootCursorAt(term_->root());
}

std::unique_ptr<Engine::Cursor> EnumerationPipeline::MakeEngineCursor() const {
  assert(!update_pending_ && "querying during an open batch is unsupported");
  return MakeEngineCursorAt(term_->root());
}

std::vector<Assignment> EnumerationPipeline::EnumerateAll() const {
  assert(!update_pending_ && "querying during an open batch is unsupported");
  return EnumerateAllAt(term_->root());
}

// ---- Snapshot (At-) query surface ----

bool EnumerationPipeline::EmptyAssignmentSatisfiesAt(TermNodeId root) const {
  const Box box = circuit_.box(root);
  for (State q : homog_->tva.final_states()) {
    if (homog_->kind[q] == 0 && box.gamma(q) == GateKind::kTop) return true;
  }
  return false;
}

std::vector<uint32_t> EnumerationPipeline::FinalGammaAt(
    TermNodeId root) const {
  std::vector<uint32_t> gamma;
  const Box box = circuit_.box(root);
  for (State q : homog_->tva.final_states()) {
    if (homog_->kind[q] == 1 && box.gamma(q) == GateKind::kUnion) {
      gamma.push_back(static_cast<uint32_t>(box.union_idx(q)));
    }
  }
  return gamma;
}

bool EnumerationPipeline::HasAnswerAt(TermNodeId root) const {
  if (EmptyAssignmentSatisfiesAt(root)) return true;
  return !FinalGammaAt(root).empty();
}

std::unique_ptr<AssignmentCursor> EnumerationPipeline::MakeRootCursorAt(
    TermNodeId root) const {
  std::vector<uint32_t> gamma = FinalGammaAt(root);
  if (gamma.empty()) return nullptr;
  return std::make_unique<AssignmentCursor>(&circuit_, &index_, mode_, root,
                                            std::move(gamma));
}

std::unique_ptr<Engine::Cursor> EnumerationPipeline::MakeEngineCursorAt(
    TermNodeId root) const {
  class Cursor : public Engine::Cursor {
   public:
    Cursor(bool emit_empty, std::unique_ptr<AssignmentCursor> inner)
        : emit_empty_(emit_empty), inner_(std::move(inner)) {}
    bool Next(Assignment* out) override {
      if (emit_empty_) {
        emit_empty_ = false;
        out->Clear();
        return true;
      }
      if (!inner_) return false;
      if (!inner_->Next(&o_)) return false;
      o_.AssignTo(out);
      return true;
    }

   private:
    bool emit_empty_;
    std::unique_ptr<AssignmentCursor> inner_;
    EnumOutput o_;  ///< Reused across answers.
  };
  return std::make_unique<Cursor>(EmptyAssignmentSatisfiesAt(root),
                                  MakeRootCursorAt(root));
}

std::vector<Assignment> EnumerationPipeline::EnumerateAllAt(
    TermNodeId root) const {
  std::vector<Assignment> out;
  std::unique_ptr<Engine::Cursor> cursor = MakeEngineCursorAt(root);
  Assignment a;
  while (cursor->Next(&a)) out.push_back(std::move(a));
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace treenum
