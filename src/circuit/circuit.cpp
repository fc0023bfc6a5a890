#include "circuit/circuit.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "util/check.h"

namespace treenum {

AssignmentCircuit::AssignmentCircuit(const Term* term, const BinaryTva* tva,
                                     const std::vector<uint8_t>* kind)
    : term_(term),
      tva_(tva),
      kind_(kind),
      w_(static_cast<uint32_t>(tva->num_states())) {
  TREENUM_CHECK(tva->num_states() <= kMaxCircuitWidth,
                "automaton too wide for 32-bit gate ids (w^2 must fit)");
  local_in_scratch_.resize(w_);
  child_in_scratch_.resize(w_);
  has_top_scratch_.resize(w_, 0);
  union_states_scratch_.reserve(w_);
  // Build the grouped-CSR δ cache now, while this thread owns the automaton:
  // box rebuilds may later run from parallel refresh workers, and the cache
  // mutates on first access.
  tva->EnsureDeltaGroups();
}

void AssignmentCircuit::EnsureSlot(TermNodeId id) {
  if (spans_.size() > id) return;
  size_t n = static_cast<size_t>(id) + 1;
  spans_.resize(n);
  gamma_.resize(n * w_, GateKind::kBot);
  union_idx_.resize(n * w_, kNoGate);
}

Box AssignmentCircuit::box(TermNodeId id) const {
  assert(id < spans_.size());
  Box b;
  size_t base = static_cast<size_t>(id) * w_;
  b.gamma_ = gamma_.data() + base;
  b.union_idx_ = union_idx_.data() + base;
  const BoxSpans& s = spans_[id];
  b.union_states_ = union_state_pool_.at(s.union_states.off);
  b.ends_ = gate_end_pool_.at(s.gate_ends.off);
  b.cross_gates_ = cross_gate_pool_.at(s.cross_gates.off);
  b.cross_in_ = cross_in_pool_.at(s.cross_in.off);
  b.child_in_ = child_in_pool_.at(s.child_in.off);
  b.var_in_ = var_in_pool_.at(s.var_in.off);
  b.var_masks_ = var_mask_pool_.at(s.var_masks.off);
  b.num_unions_ = s.union_states.len;
  b.num_cross_gates_ = s.cross_gates.len;
  b.num_var_masks_ = s.var_masks.len;
  return b;
}

void AssignmentCircuit::BuildAll() {
  // One exact allocation per fixed-stride store instead of a geometric
  // series of them (each growth would retire a buffer; see CowStore).
  if (term_->id_bound() > 0) {
    EnsureSlot(static_cast<TermNodeId>(term_->id_bound() - 1));
  }
  // Post-order over the term with an explicit stack.
  struct F {
    TermNodeId id;
    bool expanded;
  };
  std::vector<F> stack{{term_->root(), false}};
  while (!stack.empty()) {
    F f = stack.back();
    stack.pop_back();
    const TermNode& t = term_->node(f.id);
    if (!f.expanded && t.left != kNoTerm) {
      stack.push_back({f.id, true});
      stack.push_back({t.right, false});
      stack.push_back({t.left, false});
      continue;
    }
    RebuildBox(f.id);
  }
}

void AssignmentCircuit::RebuildBox(TermNodeId id) {
  EnsureSlot(id);
  if (term_->IsLeaf(id)) {
    BuildLeafBox(id);
  } else {
    BuildInternalBox(id);
  }
}

void AssignmentCircuit::FreeBox(TermNodeId id) {
  if (id >= spans_.size()) return;
  BoxSpans& s = spans_[id];
  union_state_pool_.Release(s.union_states);
  gate_end_pool_.Release(s.gate_ends);
  cross_gate_pool_.Release(s.cross_gates);
  cross_in_pool_.Release(s.cross_in);
  child_in_pool_.Release(s.child_in);
  var_in_pool_.Release(s.var_in);
  var_mask_pool_.Release(s.var_masks);
  size_t base = static_cast<size_t>(id) * w_;
  std::fill_n(gamma_.data() + base, w_, GateKind::kBot);
  std::fill_n(union_idx_.data() + base, w_, kNoGate);
}

void AssignmentCircuit::ReserveForRebuild(size_t boxes) {
  size_t alive = term_->num_alive();
  if (alive == 0 || boxes == 0) return;
  // Per-box running averages (rounded up) scale the tail headroom.
  union_state_pool_.ReserveAdditional(boxes *
                                      (union_state_pool_.size() / alive + 1));
  gate_end_pool_.ReserveAdditional(boxes * (gate_end_pool_.size() / alive + 1));
  cross_gate_pool_.ReserveAdditional(boxes *
                                     (cross_gate_pool_.size() / alive + 1));
  cross_in_pool_.ReserveAdditional(boxes * (cross_in_pool_.size() / alive + 1));
  child_in_pool_.ReserveAdditional(boxes * (child_in_pool_.size() / alive + 1));
  var_in_pool_.ReserveAdditional(boxes * (var_in_pool_.size() / alive + 1));
  var_mask_pool_.ReserveAdditional(boxes * (var_mask_pool_.size() / alive + 1));
}

void AssignmentCircuit::BuildLeafBox(TermNodeId id) {
  const uint32_t w = w_;
  for (State q = 0; q < w; ++q) {
    local_in_scratch_[q].clear();
    child_in_scratch_[q].clear();
  }
  has_top_scratch_.assign(w, 0);
  var_masks_scratch_.clear();
  cross_gates_scratch_.clear();

  Label l = term_->node(id).label;
  for (const auto& [vars, q] : tva_->LeafInitsFor(l)) {
    if (vars == 0) {
      assert((*kind_)[q] == 0);
      has_top_scratch_[q] = 1;
    } else {
      assert((*kind_)[q] == 1);
      // Dedup masks by first appearance; leaf alphabets keep this list tiny,
      // so a linear scan beats any map.
      uint32_t vi = 0;
      while (vi < var_masks_scratch_.size() && var_masks_scratch_[vi] != vars) {
        ++vi;
      }
      if (vi == var_masks_scratch_.size()) var_masks_scratch_.push_back(vars);
      local_in_scratch_[q].push_back(vi);
    }
  }
  CommitUnions(id, /*is_leaf=*/true);
}

void AssignmentCircuit::BuildInternalBox(TermNodeId id) {
  const uint32_t w = w_;
  const TermNode& t = term_->node(id);
  // γ kinds live in the fixed-stride array, which cannot move during this
  // rebuild (EnsureSlot ran already), so raw child rows are safe to hold.
  const GateKind* lg = gamma_.data() + static_cast<size_t>(t.left) * w;
  const GateKind* rg = gamma_.data() + static_cast<size_t>(t.right) * w;
  Label l = t.label;

  for (State q = 0; q < w; ++q) {
    local_in_scratch_[q].clear();
    child_in_scratch_[q].clear();
  }
  has_top_scratch_.assign(w, 0);
  cross_gates_scratch_.clear();
  var_masks_scratch_.clear();

  // Iterate the grouped-CSR form of δ|l: one group per live (q1, q2) pair
  // instead of a w x w scan with a hash probe per pair — sparse automata
  // touch only |δ|l| groups, and the flat result array replaces 2.8e7-scale
  // hash lookups on large relabel batches.
  const std::vector<DeltaGroup>& groups = tva_->DeltaGroupsFor(l);
  const State* results = tva_->delta_results().data();
  for (const DeltaGroup& g : groups) {
    GateKind k1 = lg[g.left];
    if (k1 == GateKind::kBot) continue;
    GateKind k2 = rg[g.right];
    if (k2 == GateKind::kBot) continue;
    // Each (q1, q2) pair owns exactly one group, so the shared ×-gate
    // д^{q1,q2} is created lazily on its first live result state.
    int32_t cross_id = -1;
    for (uint32_t i = g.begin; i < g.end; ++i) {
      State q = results[i];
      if (k1 == GateKind::kTop && k2 == GateKind::kTop) {
        assert((*kind_)[q] == 0 && "homogenization violated");
        has_top_scratch_[q] = 1;
      } else if (k1 == GateKind::kTop) {
        // д^{q1,q2} collapses to γ(right, q2).
        child_in_scratch_[q].push_back(ChildUnionInput{uint8_t{1}, g.right});
      } else if (k2 == GateKind::kTop) {
        child_in_scratch_[q].push_back(ChildUnionInput{uint8_t{0}, g.left});
      } else {
        if (cross_id < 0) {
          cross_id = static_cast<int32_t>(cross_gates_scratch_.size());
          cross_gates_scratch_.push_back(CrossGate{g.left, g.right});
        }
        local_in_scratch_[q].push_back(static_cast<uint32_t>(cross_id));
      }
    }
  }
  CommitUnions(id, /*is_leaf=*/false);
}

void AssignmentCircuit::CommitUnions(TermNodeId id, bool is_leaf) {
  const uint32_t w = w_;
  size_t base = static_cast<size_t>(id) * w;
  GateKind* gamma = gamma_.data() + base;
  int32_t* uidx = union_idx_.data() + base;
  BoxSpans& s = spans_[id];

  union_states_scratch_.clear();
  // 64-bit accumulators: a box can hold up to w^3 input entries (one per
  // (q1, q2, result) triple), which overflows uint32_t long before the
  // kMaxCircuitWidth bound does — check loudly instead of wrapping.
  uint64_t nlocal = 0;
  uint64_t nchild = 0;
  for (State q = 0; q < w; ++q) {
    bool has =
        !local_in_scratch_[q].empty() || !child_in_scratch_[q].empty();
    if (has_top_scratch_[q]) {
      assert(!has && "homogenization violated");
      gamma[q] = GateKind::kTop;
      uidx[q] = kNoGate;
      continue;
    }
    if (!has) {
      gamma[q] = GateKind::kBot;
      uidx[q] = kNoGate;
      continue;
    }
    gamma[q] = GateKind::kUnion;
    uidx[q] = static_cast<int32_t>(union_states_scratch_.size());
    union_states_scratch_.push_back(q);
    nlocal += local_in_scratch_[q].size();
    nchild += child_in_scratch_[q].size();
  }
  const uint32_t nu = static_cast<uint32_t>(union_states_scratch_.size());
  TREENUM_CHECK(nlocal <= (uint64_t{1} << 31) && nchild <= (uint64_t{1} << 31),
                "box wire lists exceed 32-bit CSR offsets");

  // Span turnover: each pool span is reused in place when its capacity
  // suffices (Ensure), so steady-state refreshes stay allocation-free.
  union_state_pool_.Ensure(s.union_states, nu);
  gate_end_pool_.Ensure(s.gate_ends, nu);
  cross_gate_pool_.Ensure(s.cross_gates,
                          static_cast<uint32_t>(cross_gates_scratch_.size()));
  var_mask_pool_.Ensure(s.var_masks,
                        static_cast<uint32_t>(var_masks_scratch_.size()));
  uint32_t nlocal32 = static_cast<uint32_t>(nlocal);
  cross_in_pool_.Ensure(s.cross_in, is_leaf ? 0 : nlocal32);
  var_in_pool_.Ensure(s.var_in, is_leaf ? nlocal32 : 0);
  child_in_pool_.Ensure(s.child_in, static_cast<uint32_t>(nchild));

  std::copy(cross_gates_scratch_.begin(), cross_gates_scratch_.end(),
            cross_gate_pool_.at(s.cross_gates.off));
  std::copy(var_masks_scratch_.begin(), var_masks_scratch_.end(),
            var_mask_pool_.at(s.var_masks.off));

  uint32_t* local_dst = is_leaf ? var_in_pool_.at(s.var_in.off)
                                : cross_in_pool_.at(s.cross_in.off);
  ChildUnionInput* child_dst = child_in_pool_.at(s.child_in.off);
  State* ustates = union_state_pool_.at(s.union_states.off);
  GateEnds* ends = gate_end_pool_.at(s.gate_ends.off);
  uint32_t lo = 0;
  uint32_t ch = 0;
  for (uint32_t u = 0; u < nu; ++u) {
    const State q = union_states_scratch_[u];
    ustates[u] = q;
    for (uint32_t v : local_in_scratch_[q]) local_dst[lo++] = v;
    for (const ChildUnionInput& ci : child_in_scratch_[q]) {
      child_dst[ch++] = ci;
    }
    ends[u].cross_end = is_leaf ? 0 : lo;
    ends[u].var_end = is_leaf ? lo : 0;
    ends[u].child_end = ch;
  }
}

StoreBytes AssignmentCircuit::StorageBytes() const {
  StoreBytes b;
  b += gamma_.bytes();
  b += union_idx_.bytes();
  b += spans_.bytes();
  b += union_state_pool_.bytes();
  b += gate_end_pool_.bytes();
  b += cross_gate_pool_.bytes();
  b += cross_in_pool_.bytes();
  b += child_in_pool_.bytes();
  b += var_in_pool_.bytes();
  b += var_mask_pool_.bytes();
  return b;
}

void AssignmentCircuit::DropRetired() {
  gamma_.DropRetired();
  union_idx_.DropRetired();
  spans_.DropRetired();
  union_state_pool_.DropRetired();
  gate_end_pool_.DropRetired();
  cross_gate_pool_.DropRetired();
  cross_in_pool_.DropRetired();
  child_in_pool_.DropRetired();
  var_in_pool_.DropRetired();
  var_mask_pool_.DropRetired();
}

size_t AssignmentCircuit::CountGates() const {
  size_t n = 0;
  for (TermNodeId id = 0; id < spans_.size(); ++id) {
    if (!term_->IsAlive(id)) continue;
    const BoxSpans& s = spans_[id];
    n += w_;  // γ gates (⊤/⊥/∪)
    n += s.cross_gates.len;
    n += s.var_masks.len;
  }
  return n;
}

std::string AssignmentCircuit::ValidateStorage() const {
  std::ostringstream err;
  std::vector<LiveSpan> us, ge, cg, ci, ch, vi, vm;
  for (TermNodeId id = 0; id < spans_.size(); ++id) {
    if (!term_->IsAlive(id)) continue;
    const BoxSpans& s = spans_[id];
    const uint32_t nu = s.union_states.len;
    if (nu > w_) {
      err << "box " << id << " has more unions than states";
      return err.str();
    }
    if (s.gate_ends.len != nu) {
      err << "box " << id << " gate_ends length is not its union count";
      return err.str();
    }
    if (term_->IsLeaf(id)) {
      if (s.cross_gates.len != 0 || s.cross_in.len != 0 ||
          s.child_in.len != 0) {
        err << "leaf box " << id << " owns internal-box wires";
        return err.str();
      }
    } else if (s.var_in.len != 0 || s.var_masks.len != 0) {
      err << "internal box " << id << " owns var gates";
      return err.str();
    }
    for (const auto& [ref, out] :
         {std::make_pair(&s.union_states, &us),
          std::make_pair(&s.gate_ends, &ge),
          std::make_pair(&s.cross_gates, &cg), std::make_pair(&s.cross_in, &ci),
          std::make_pair(&s.child_in, &ch), std::make_pair(&s.var_in, &vi),
          std::make_pair(&s.var_masks, &vm)}) {
      if (ref->len > ref->cap) {
        err << "box " << id << " span length exceeds capacity";
        return err.str();
      }
      if (ref->cap != 0) out->push_back(LiveSpan{ref->off, ref->cap, id});
    }
    size_t base = static_cast<size_t>(id) * w_;
    const State* ustates = union_state_pool_.at(s.union_states.off);
    const GateEnds* ends = gate_end_pool_.at(s.gate_ends.off);
    uint32_t seen = 0;
    for (State q = 0; q < w_; ++q) {
      int32_t d = union_idx_[base + q];
      if (gamma_[base + q] == GateKind::kUnion) {
        if (d < 0 || static_cast<uint32_t>(d) >= nu || ustates[d] != q) {
          err << "box " << id << " dense index broken for state " << q;
          return err.str();
        }
        ++seen;
      } else if (d != kNoGate) {
        err << "box " << id << " stale union_idx for state " << q;
        return err.str();
      }
    }
    if (seen != nu) {
      err << "box " << id << " union count mismatch";
      return err.str();
    }
    // CSR ends must be monotone and bounded by the span lengths.
    uint32_t pc = 0, ph = 0, pv = 0;
    for (uint32_t u = 0; u < nu; ++u) {
      const GateEnds& e = ends[u];
      if (e.cross_end < pc || e.child_end < ph || e.var_end < pv ||
          e.cross_end > s.cross_in.len || e.child_end > s.child_in.len ||
          e.var_end > s.var_in.len) {
        err << "box " << id << " CSR offsets broken at gate " << u;
        return err.str();
      }
      pc = e.cross_end;
      ph = e.child_end;
      pv = e.var_end;
    }
    if (nu > 0 &&
        (pc != s.cross_in.len || ph != s.child_in.len || pv != s.var_in.len)) {
      err << "box " << id << " CSR tail does not cover its span";
      return err.str();
    }
  }
  std::string e;
  if (!(e = CheckPoolSpans("union_state", union_state_pool_.size(), us))
           .empty())
    return e;
  if (!(e = CheckPoolSpans("gate_end", gate_end_pool_.size(), ge)).empty())
    return e;
  if (!(e = CheckPoolSpans("cross_gate", cross_gate_pool_.size(), cg)).empty())
    return e;
  if (!(e = CheckPoolSpans("cross_in", cross_in_pool_.size(), ci)).empty())
    return e;
  if (!(e = CheckPoolSpans("child_in", child_in_pool_.size(), ch)).empty())
    return e;
  if (!(e = CheckPoolSpans("var_in", var_in_pool_.size(), vi)).empty())
    return e;
  if (!(e = CheckPoolSpans("var_mask", var_mask_pool_.size(), vm)).empty())
    return e;
  return std::string();
}

}  // namespace treenum
