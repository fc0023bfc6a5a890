#include "enumeration/enumerate.h"

#include <algorithm>
#include <cassert>

namespace treenum {

namespace {

void OrInto(uint64_t* dst, const uint64_t* src, size_t words) {
  for (size_t i = 0; i < words; ++i) dst[i] |= src[i];
}

bool BitAt(const std::vector<uint64_t>& bits, size_t pos) {
  return pos / 64 < bits.size() && ((bits[pos / 64] >> (pos % 64)) & 1u);
}

}  // namespace

Assignment EnumOutput::ToAssignment() const {
  Assignment a;
  AssignTo(&a);
  return a;
}

void EnumOutput::AssignTo(Assignment* out) const {
  out->Clear();
  for (const auto& [mask, node] : contributions) {
    for (VarId v = 0; mask >> v; ++v) {
      if (mask & (VarMask{1} << v)) out->Add(Singleton{v, node});
    }
  }
  out->Normalize();
}

AssignmentCursor::AssignmentCursor(const AssignmentCircuit* circuit,
                                   const EnumIndex* index, BoxEnumMode mode,
                                   TermNodeId box,
                                   std::vector<uint32_t> gamma)
    : circuit_(circuit),
      index_(index),
      mode_(mode),
      prov_words_((gamma.size() + 63) / 64) {
  assert(!gamma.empty());
  box_enum_ = MakeBoxEnum(box, gamma);
}

void AssignmentCursor::Reset(TermNodeId box,
                             const std::vector<uint32_t>& gamma) {
  assert(!gamma.empty());
  prov_words_ = (gamma.size() + 63) / 64;
  box_enum_->Reset(box, gamma);
  stage_ = Stage::kNextBox;
  left_live_ = false;
  right_live_ = false;
  local_steps_ = 0;
}

std::unique_ptr<BoxEnumCursor> AssignmentCursor::MakeBoxEnum(
    TermNodeId box, const std::vector<uint32_t>& g) {
  if (mode_ == BoxEnumMode::kIndexed) {
    assert(index_ != nullptr);
    return std::make_unique<IndexedBoxEnum>(index_, box, g);
  }
  return std::make_unique<NaiveBoxEnum>(circuit_, box, g);
}

uint64_t* AssignmentCursor::AccSlot(int32_t* slot) {
  if (*slot < 0) {
    *slot = static_cast<int32_t>(prov_acc_.size() / prov_words_);
    prov_acc_.resize(prov_acc_.size() + prov_words_, 0);
  }
  return prov_acc_.data() + static_cast<size_t>(*slot) * prov_words_;
}

void AssignmentCursor::PrepareBox() {
  const Box b = circuit_->box(cur_.box);
  // R(box, Γ) has one column per Γ position: a row is a provenance bitset.
  assert(cur_.rel.words_per_row() == prov_words_);
  var_pos_ = 0;
  vars_.clear();
  crosses_.clear();
  prov_acc_.clear();
  var_slot_.assign(b.num_var_masks(), -1);
  cross_slot_.assign(b.num_cross_gates(), -1);

  cur_.rel.NonEmptyRowsInto(&rows_scratch_);
  for (uint32_t g : rows_scratch_) {
    const uint64_t* row = cur_.rel.Row(g);
    for (uint32_t vi : b.var_inputs(g)) {
      OrInto(AccSlot(&var_slot_[vi]), row, prov_words_);
    }
    for (uint32_t ci : b.cross_inputs(g)) {
      OrInto(AccSlot(&cross_slot_[ci]), row, prov_words_);
    }
    ++local_steps_;
  }
  for (uint32_t vi = 0; vi < var_slot_.size(); ++vi) {
    if (var_slot_[vi] >= 0) vars_.push_back(vi);
  }
  for (uint32_t ci = 0; ci < cross_slot_.size(); ++ci) {
    if (cross_slot_[ci] >= 0) crosses_.push_back(ci);
  }
}

void AssignmentCursor::ResetChild(std::unique_ptr<AssignmentCursor>* child,
                                  TermNodeId box,
                                  const std::vector<uint32_t>& gamma) {
  if (*child) {
    (*child)->Reset(box, gamma);
  } else {
    *child = std::make_unique<AssignmentCursor>(circuit_, index_, mode_, box,
                                                gamma);
  }
}

void AssignmentCursor::SetupLeft() {
  if (crosses_.empty()) {
    stage_ = Stage::kNextBox;
    return;
  }
  const Box b = circuit_->box(cur_.box);
  const Term& term = circuit_->term();
  TermNodeId lchild = term.node(cur_.box).left;
  const Box lb = circuit_->box(lchild);

  gamma_left_.clear();
  left_pos_.assign(lb.num_unions(), -1);
  for (uint32_t p : crosses_) {
    const CrossGate& cg = b.cross_gate(p);
    int32_t d = lb.union_idx(cg.left_state);
    assert(d != kNoGate);
    if (left_pos_[d] < 0) {
      left_pos_[d] = static_cast<int32_t>(gamma_left_.size());
      gamma_left_.push_back(static_cast<uint32_t>(d));
    }
  }
  if (left_live_) local_steps_ += left_cursor_->steps();
  ResetChild(&left_cursor_, lchild, gamma_left_);
  left_live_ = true;
  stage_ = Stage::kPullLeft;
}

void AssignmentCursor::SetupRight() {
  const Box b = circuit_->box(cur_.box);
  const Term& term = circuit_->term();
  TermNodeId lchild = term.node(cur_.box).left;
  TermNodeId rchild = term.node(cur_.box).right;
  const Box lb = circuit_->box(lchild);
  const Box rb = circuit_->box(rchild);

  // G×': crosses whose left input captures the current left assignment.
  crosses_left_.clear();
  for (uint32_t i = 0; i < crosses_.size(); ++i) {
    const CrossGate& cg = b.cross_gate(crosses_[i]);
    int32_t pos = left_pos_[lb.union_idx(cg.left_state)];
    if (BitAt(left_out_.provenance, static_cast<size_t>(pos))) {
      crosses_left_.push_back(i);
    }
  }
  assert(!crosses_left_.empty());

  gamma_right_.clear();
  right_pos_.assign(rb.num_unions(), -1);
  for (uint32_t i : crosses_left_) {
    const CrossGate& cg = b.cross_gate(crosses_[i]);
    int32_t d = rb.union_idx(cg.right_state);
    assert(d != kNoGate);
    if (right_pos_[d] < 0) {
      right_pos_[d] = static_cast<int32_t>(gamma_right_.size());
      gamma_right_.push_back(static_cast<uint32_t>(d));
    }
  }
  if (right_live_) local_steps_ += right_cursor_->steps();
  ResetChild(&right_cursor_, rchild, gamma_right_);
  right_live_ = true;
}

bool AssignmentCursor::Next(EnumOutput* out) {
  const Term& term = circuit_->term();
  while (true) {
    switch (stage_) {
      case Stage::kDone:
        return false;

      case Stage::kNextBox: {
        if (!box_enum_->Next(&cur_)) {
          stage_ = Stage::kDone;
          return false;
        }
        PrepareBox();
        stage_ = Stage::kEmitVars;
        break;
      }

      case Stage::kEmitVars: {
        if (var_pos_ < vars_.size()) {
          const uint32_t vi = vars_[var_pos_++];
          const Box b = circuit_->box(cur_.box);
          out->contributions.clear();
          out->contributions.emplace_back(b.var_mask(vi),
                                          term.node(cur_.box).tree_node);
          const uint64_t* prov = Acc(var_slot_[vi]);
          out->provenance.assign(prov, prov + prov_words_);
          ++local_steps_;
          return true;
        }
        SetupLeft();
        break;
      }

      case Stage::kPullLeft: {
        if (!left_cursor_->Next(&left_out_)) {
          stage_ = Stage::kNextBox;
          break;
        }
        SetupRight();
        stage_ = Stage::kPullRight;
        break;
      }

      case Stage::kPullRight: {
        if (!right_cursor_->Next(&right_out_)) {
          stage_ = Stage::kPullLeft;
          break;
        }
        const Box b = circuit_->box(cur_.box);
        const Box rb =
            circuit_->box(term.node(cur_.box).right);
        out->contributions = left_out_.contributions;
        out->contributions.insert(out->contributions.end(),
                                  right_out_.contributions.begin(),
                                  right_out_.contributions.end());
        out->provenance.assign(prov_words_, 0);
        bool any = false;
        for (uint32_t i : crosses_left_) {
          const CrossGate& cg = b.cross_gate(crosses_[i]);
          int32_t pos = right_pos_[rb.union_idx(cg.right_state)];
          if (BitAt(right_out_.provenance, static_cast<size_t>(pos))) {
            OrInto(out->provenance.data(), Acc(cross_slot_[crosses_[i]]),
                   prov_words_);
            any = true;
          }
        }
        assert(any);
        (void)any;
        ++local_steps_;
        return true;
      }
    }
  }
}

size_t AssignmentCursor::steps() const {
  size_t s = local_steps_ + box_enum_->steps();
  if (left_live_) s += left_cursor_->steps();
  if (right_live_) s += right_cursor_->steps();
  return s;
}

std::vector<Assignment> CollectAll(AssignmentCursor& cursor) {
  std::vector<Assignment> out;
  EnumOutput o;
  while (cursor.Next(&o)) out.push_back(o.ToAssignment());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace treenum
