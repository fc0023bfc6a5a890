#include "enumeration/index.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace treenum {

namespace {

/// Sets the diagonal of a zeroed n x n pooled matrix.
void FillIdentityWords(uint64_t* words, uint32_t n) {
  const uint32_t wpr = BitMatrixPool::WordsPerRow(n);
  for (uint32_t i = 0; i < n; ++i) {
    words[static_cast<size_t>(i) * wpr + i / 64] |= uint64_t{1} << (i % 64);
  }
}

// Closes `items` (candidate indices of a child box) under the child's
// pairwise lca table. Candidate sets stay O(w), so the quadratic loop is
// within the per-box poly(w) budget of Lemma 6.3.
void LcaClose(const BoxIndex& child, std::vector<int32_t>& items) {
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  bool grew = true;
  while (grew) {
    grew = false;
    size_t n = items.size();
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        int32_t l = child.Lca(items[i], items[j]);
        if (!std::binary_search(items.begin(), items.end(), l)) {
          items.insert(std::lower_bound(items.begin(), items.end(), l), l);
          grew = true;
        }
      }
    }
  }
}

}  // namespace

void EnumIndex::EnsureSlot(TermNodeId id) {
  if (spans_.size() <= id) spans_.resize(id + 1);
}

void EnumIndex::BuildAll() {
  const Term& term = circuit_->term();
  // Size the span directory once (see AssignmentCircuit::BuildAll).
  if (term.id_bound() > 0) {
    EnsureSlot(static_cast<TermNodeId>(term.id_bound() - 1));
  }
  struct F {
    TermNodeId id;
    bool expanded;
  };
  std::vector<F> stack{{term.root(), false}};
  while (!stack.empty()) {
    F f = stack.back();
    stack.pop_back();
    const TermNode& t = term.node(f.id);
    if (!f.expanded && t.left != kNoTerm) {
      stack.push_back({f.id, true});
      stack.push_back({t.right, false});
      stack.push_back({t.left, false});
      continue;
    }
    RebuildBoxIndex(f.id);
  }
}

StoreBytes EnumIndex::StorageBytes() const {
  StoreBytes b;
  b += spans_.bytes();
  b += cand_pool_.bytes();
  b += i32_pool_.bytes();
  b += bits_pool_.bytes();
  return b;
}

void EnumIndex::DropRetired() {
  spans_.DropRetired();
  cand_pool_.DropRetired();
  i32_pool_.DropRetired();
  bits_pool_.DropRetired();
}

BoxIndex EnumIndex::at(TermNodeId id) const {
  BoxIndex v;
  if (id >= spans_.size()) return v;
  const BoxIndexSpans& s = spans_[id];
  v.cands_ = cand_pool_.at(s.cands.off);
  v.fib_ = i32_pool_.at(s.fib.off);
  v.span_ = i32_pool_.at(s.span.off);
  v.cand_lca_ = i32_pool_.at(s.cand_lca.off);
  v.bits_ = bits_pool_.base();
  v.wl_ = s.wire_left;
  v.wr_ = s.wire_right;
  v.num_cands_ = s.cands.len;
  v.nu_ = s.fib.len;
  return v;
}

void EnumIndex::ReleaseCandRels(BoxIndexSpans& s) {
  CandRec* recs = cand_pool_.at(s.cands.off);
  for (uint32_t i = 0; i < s.cands.len; ++i) bits_pool_.Release(recs[i].rel);
}

void EnumIndex::FreeSpans(BoxIndexSpans& s) {
  ReleaseCandRels(s);
  cand_pool_.Release(s.cands);
  i32_pool_.Release(s.fib);
  i32_pool_.Release(s.span);
  i32_pool_.Release(s.cand_lca);
  bits_pool_.Release(s.wire_left);
  bits_pool_.Release(s.wire_right);
}

void EnumIndex::FreeBoxIndex(TermNodeId id) {
  if (id < spans_.size()) FreeSpans(spans_[id]);
}

void EnumIndex::ReserveForRebuild(size_t boxes) {
  size_t alive = circuit_->term().num_alive();
  if (alive == 0 || boxes == 0) return;
  // Per-box running averages (rounded up) scale the tail headroom, exactly
  // like AssignmentCircuit::ReserveForRebuild.
  cand_pool_.ReserveAdditional(boxes * (cand_pool_.size() / alive + 1));
  i32_pool_.ReserveAdditional(boxes * (i32_pool_.size() / alive + 1));
  bits_pool_.ReserveAdditional(boxes * (bits_pool_.size() / alive + 1));
}

void EnumIndex::RebuildBoxIndex(TermNodeId id) {
  EnsureSlot(id);
  const Term& term = circuit_->term();
  const Box box = circuit_->box(id);
  const uint32_t nu = static_cast<uint32_t>(box.num_unions());
  BoxIndexSpans& s = spans_[id];

  if (nu == 0) {
    FreeSpans(s);
    return;
  }

  if (term.IsLeaf(id)) {
    // Every ∪-gate of a leaf box has var-gate inputs, so fib = span = self.
    ReleaseCandRels(s);
    cand_pool_.Ensure(s.cands, 1);
    i32_pool_.Ensure(s.fib, nu);
    i32_pool_.Ensure(s.span, nu);
    i32_pool_.Ensure(s.cand_lca, 1);
    bits_pool_.Release(s.wire_left);
    bits_pool_.Release(s.wire_right);

    BitsRef rel{};
    bits_pool_.Ensure(rel, nu, nu);
    FillIdentityWords(bits_pool_.words(rel), nu);
    *cand_pool_.at(s.cands.off) = CandRec{id, 0, kNoCand, rel};
    std::fill_n(i32_pool_.at(s.fib.off), nu, 0);
    std::fill_n(i32_pool_.at(s.span.off), nu, 0);
    *i32_pool_.at(s.cand_lca.off) = 0;
    return;
  }

  const TermNodeId lid = term.node(id).left;
  const TermNodeId rid = term.node(id).right;
  const Box lbox = circuit_->box(lid);
  const Box rbox = circuit_->box(rid);
  const uint32_t lnu = static_cast<uint32_t>(lbox.num_unions());
  const uint32_t rnu = static_cast<uint32_t>(rbox.num_unions());

  // ---- Phase 1: read the children into scratch. No pool mutation here, so
  // the child views stay valid throughout.
  {
    const BoxIndex lidx = at(lid);
    const BoxIndex ridx = at(rid);

    // Per-gate child input lists as dense child ∪-gate indices.
    if (in_left_scratch_.size() < nu) {
      in_left_scratch_.resize(nu);
      in_right_scratch_.resize(nu);
    }
    for (uint32_t u = 0; u < nu; ++u) {
      in_left_scratch_[u].clear();
      in_right_scratch_[u].clear();
    }
    for (uint32_t u = 0; u < nu; ++u) {
      for (const auto& [side, state] : box.child_union_inputs(u)) {
        if (side == 0) {
          int32_t d = lbox.union_idx(state);
          assert(d != kNoGate);
          in_left_scratch_[u].push_back(static_cast<uint32_t>(d));
        } else {
          int32_t d = rbox.union_idx(state);
          assert(d != kNoGate);
          in_right_scratch_[u].push_back(static_cast<uint32_t>(d));
        }
      }
    }

    // Raw fib/span per gate: (source, child candidate index).
    fib_pre_scratch_.assign(nu, Pre{0, kNoCand});
    span_pre_scratch_.assign(nu, Pre{0, kNoCand});
    for (uint32_t u = 0; u < nu; ++u) {
      const std::vector<uint32_t>& inl = in_left_scratch_[u];
      const std::vector<uint32_t>& inr = in_right_scratch_[u];
      bool local = box.HasNonUnionInput(u);
      bool has_l = !inl.empty();
      bool has_r = !inr.empty();
      assert(local || has_l || has_r);
      // fib: Equation (3).
      if (local) {
        fib_pre_scratch_[u] = {0, kNoCand};
      } else if (has_l) {
        int32_t best = lidx.fib(inl[0]);
        for (uint32_t g : inl) best = std::min(best, lidx.fib(g));
        fib_pre_scratch_[u] = {1, best};
      } else {
        int32_t best = ridx.fib(inr[0]);
        for (uint32_t g : inr) best = std::min(best, ridx.fib(g));
        fib_pre_scratch_[u] = {2, best};
      }
      // span: lca of the gate's interesting boxes.
      if (local || (has_l && has_r)) {
        span_pre_scratch_[u] = {0, kNoCand};
      } else if (has_l) {
        span_pre_scratch_[u] = {1, lidx.SpanLocal(inl)};
      } else {
        span_pre_scratch_[u] = {2, ridx.SpanLocal(inr)};
      }
    }

    // Candidate collection + lca closure per side.
    used_l_scratch_.clear();
    used_r_scratch_.clear();
    bool use_self = false;
    for (uint32_t u = 0; u < nu; ++u) {
      for (const Pre& p : {fib_pre_scratch_[u], span_pre_scratch_[u]}) {
        if (p.source == 0) {
          use_self = true;
        } else if (p.source == 1) {
          used_l_scratch_.push_back(p.cc);
        } else {
          used_r_scratch_.push_back(p.cc);
        }
      }
    }
    if (!used_l_scratch_.empty()) LcaClose(lidx, used_l_scratch_);
    if (!used_r_scratch_.empty()) LcaClose(ridx, used_r_scratch_);
    if (!used_l_scratch_.empty() && !used_r_scratch_.empty()) use_self = true;

    // Stage the upcoming candidates in preorder (self, left child's in its
    // order, right child's) and record the child→new index maps.
    cand_meta_scratch_.clear();
    map_l_scratch_.assign(lidx.num_cands(), kNoCand);
    map_r_scratch_.assign(ridx.num_cands(), kNoCand);
    if (use_self) cand_meta_scratch_.push_back(CandMeta{id, 0, kNoCand, nu});
    for (int32_t cc : used_l_scratch_) {
      map_l_scratch_[cc] = static_cast<int32_t>(cand_meta_scratch_.size());
      cand_meta_scratch_.push_back(
          CandMeta{lidx.cand_box(cc), 1, cc,
                   static_cast<uint32_t>(lidx.cand_rel(cc).rows())});
    }
    for (int32_t cc : used_r_scratch_) {
      map_r_scratch_[cc] = static_cast<int32_t>(cand_meta_scratch_.size());
      cand_meta_scratch_.push_back(
          CandMeta{ridx.cand_box(cc), 2, cc,
                   static_cast<uint32_t>(ridx.cand_rel(cc).rows())});
    }
  }
  const uint32_t nc = static_cast<uint32_t>(cand_meta_scratch_.size());
  assert(nc > 0);
  const int32_t self_idx =
      cand_meta_scratch_[0].source == 0 ? 0 : kNoCand;

  // ---- Phase 2: (re)allocate this box's spans. Child raw views from phase
  // 1 are dead past this point; phase 3 re-resolves them.
  ReleaseCandRels(s);
  cand_pool_.Ensure(s.cands, nc);
  i32_pool_.Ensure(s.fib, nu);
  i32_pool_.Ensure(s.span, nu);
  i32_pool_.Ensure(s.cand_lca, nc * nc);
  bits_pool_.Ensure(s.wire_left, lnu, nu);
  bits_pool_.Ensure(s.wire_right, rnu, nu);
  // The CandRec pool is disjoint from the bit pool, so these records stay
  // put while the relation blocks are acquired.
  CandRec* recs = cand_pool_.at(s.cands.off);
  for (uint32_t c = 0; c < nc; ++c) {
    const CandMeta& m = cand_meta_scratch_[c];
    recs[c] = CandRec{m.box, m.source, m.cc, BitsRef{}};
    // Inherited candidates (source != 0) are compose targets, which the
    // kernel fully overwrites — skip the zero-fill for them. Only the
    // identity block (diagonal scatter) needs pre-zeroed words.
    if (m.source == 0) {
      bits_pool_.Ensure(recs[c].rel, m.rows, nu);
    } else {
      bits_pool_.EnsureUninit(recs[c].rel, m.rows, nu);
    }
  }

  // ---- Phase 3: fill. Reads child spans, writes this box's spans; no pool
  // mutation, so every view resolved below stays valid.
  const BoxIndex lidx = at(lid);
  const BoxIndex ridx = at(rid);

  // Wire relations R(child, B) over the ∪→∪ (⊤-collapse) wires.
  const uint32_t wpr = BitMatrixPool::WordsPerRow(nu);
  uint64_t* wl = bits_pool_.words(s.wire_left);
  uint64_t* wr = bits_pool_.words(s.wire_right);
  for (uint32_t u = 0; u < nu; ++u) {
    const uint64_t bit = uint64_t{1} << (u % 64);
    for (uint32_t d : in_left_scratch_[u]) {
      wl[static_cast<size_t>(d) * wpr + u / 64] |= bit;
    }
    for (uint32_t d : in_right_scratch_[u]) {
      wr[static_cast<size_t>(d) * wpr + u / 64] |= bit;
    }
  }

  // Candidate relations: self = identity (block pre-zeroed by Ensure),
  // inherited = child rel composed with the wire relation of that side
  // (blocks written wholesale by the overwrite-semantics compose kernel).
  const BitMatrixView wlv = bits_pool_.view(s.wire_left);
  const BitMatrixView wrv = bits_pool_.view(s.wire_right);
  for (uint32_t c = 0; c < nc; ++c) {
    uint64_t* dst = bits_pool_.words(recs[c].rel);
    if (recs[c].source == 0) {
      FillIdentityWords(dst, nu);
    } else if (recs[c].source == 1) {
      BitMatrixView::ComposeIntoWords(lidx.cand_rel(recs[c].child_cand), wlv,
                                      dst);
    } else {
      BitMatrixView::ComposeIntoWords(ridx.cand_rel(recs[c].child_cand), wrv,
                                      dst);
    }
  }

  // fib/span per gate, resolved to the new candidate indices.
  auto resolve = [&](const Pre& p) -> int32_t {
    if (p.source == 0) return self_idx;
    if (p.source == 1) return map_l_scratch_[p.cc];
    return map_r_scratch_[p.cc];
  };
  int32_t* fib = i32_pool_.at(s.fib.off);
  int32_t* span = i32_pool_.at(s.span.off);
  for (uint32_t u = 0; u < nu; ++u) {
    fib[u] = resolve(fib_pre_scratch_[u]);
    span[u] = resolve(span_pre_scratch_[u]);
    assert(fib[u] != kNoCand && span[u] != kNoCand);
  }

  // Pairwise candidate lca table.
  int32_t* lca = i32_pool_.at(s.cand_lca.off);
  for (uint32_t a = 0; a < nc; ++a) {
    for (uint32_t b = 0; b < nc; ++b) {
      int32_t v;
      if (a == b) {
        v = static_cast<int32_t>(a);
      } else if (recs[a].source == 0 || recs[b].source == 0 ||
                 recs[a].source != recs[b].source) {
        assert(self_idx != kNoCand);
        v = self_idx;
      } else if (recs[a].source == 1) {
        v = map_l_scratch_[lidx.Lca(recs[a].child_cand, recs[b].child_cand)];
      } else {
        v = map_r_scratch_[ridx.Lca(recs[a].child_cand, recs[b].child_cand)];
      }
      assert(v != kNoCand);
      lca[static_cast<size_t>(a) * nc + b] = v;
    }
  }
}

std::string EnumIndex::ValidateStorage() const {
  const Term& term = circuit_->term();
  std::ostringstream err;
  std::vector<LiveSpan> cands, i32s, bits;
  for (TermNodeId id = 0; id < spans_.size(); ++id) {
    if (!term.IsAlive(id)) continue;
    const BoxIndexSpans& s = spans_[id];
    const Box box = circuit_->box(id);
    const uint32_t nu = static_cast<uint32_t>(box.num_unions());
    if (nu == 0) {
      if (s.cands.len != 0 || s.fib.len != 0 || s.span.len != 0 ||
          s.cand_lca.len != 0 || s.wire_left.rows != 0 ||
          s.wire_right.rows != 0) {
        err << "gate-free box " << id << " owns index spans";
        return err.str();
      }
      continue;
    }
    const uint32_t nc = s.cands.len;
    if (nc == 0) {
      err << "box " << id << " has gates but no candidates";
      return err.str();
    }
    if (s.fib.len != nu || s.span.len != nu) {
      err << "box " << id << " fib/span length mismatch";
      return err.str();
    }
    if (s.cand_lca.len != nc * nc) {
      err << "box " << id << " lca table is not candidates squared";
      return err.str();
    }
    const CandRec* recs = cand_pool_.at(s.cands.off);
    for (uint32_t c = 0; c < nc; ++c) {
      const CandRec& rec = recs[c];
      if (!term.IsAlive(rec.box)) {
        err << "box " << id << " candidate " << c << " names a dead box";
        return err.str();
      }
      if (rec.rel.cols != nu ||
          rec.rel.rows !=
              static_cast<uint32_t>(circuit_->box(rec.box).num_unions())) {
        err << "box " << id << " candidate " << c << " rel shape mismatch";
        return err.str();
      }
      if (rec.rel.words.cap != 0) {
        bits.push_back(LiveSpan{rec.rel.words.off, rec.rel.words.cap, id});
      }
    }
    const int32_t* fib = i32_pool_.at(s.fib.off);
    const int32_t* span = i32_pool_.at(s.span.off);
    for (uint32_t u = 0; u < nu; ++u) {
      if (fib[u] < 0 || static_cast<uint32_t>(fib[u]) >= nc || span[u] < 0 ||
          static_cast<uint32_t>(span[u]) >= nc) {
        err << "box " << id << " fib/span out of candidate range at gate "
            << u;
        return err.str();
      }
    }
    const int32_t* lca = i32_pool_.at(s.cand_lca.off);
    for (uint32_t i = 0; i < nc * nc; ++i) {
      if (lca[i] < 0 || static_cast<uint32_t>(lca[i]) >= nc) {
        err << "box " << id << " lca table out of candidate range";
        return err.str();
      }
    }
    if (!term.IsLeaf(id)) {
      if (s.wire_left.cols != nu || s.wire_right.cols != nu ||
          s.wire_left.rows != static_cast<uint32_t>(
                                  circuit_->box(term.node(id).left)
                                      .num_unions()) ||
          s.wire_right.rows != static_cast<uint32_t>(
                                   circuit_->box(term.node(id).right)
                                       .num_unions())) {
        err << "internal box " << id << " wire shape mismatch";
        return err.str();
      }
    } else if (s.wire_left.rows != 0 || s.wire_right.rows != 0) {
      err << "leaf box " << id << " owns wire relations";
      return err.str();
    }
    if (s.cands.len > s.cands.cap) {
      err << "box " << id << " candidate span length exceeds capacity";
      return err.str();
    }
    if (s.cands.cap != 0) {
      cands.push_back(LiveSpan{s.cands.off, s.cands.cap, id});
    }
    for (const SpanRef* ref : {&s.fib, &s.span, &s.cand_lca}) {
      if (ref->len > ref->cap) {
        err << "box " << id << " int32 span length exceeds capacity";
        return err.str();
      }
      if (ref->cap != 0) i32s.push_back(LiveSpan{ref->off, ref->cap, id});
    }
    for (const BitsRef* ref : {&s.wire_left, &s.wire_right}) {
      if (ref->words.cap != 0) {
        bits.push_back(LiveSpan{ref->words.off, ref->words.cap, id});
      }
    }
  }
  std::string e;
  if (!(e = CheckPoolSpans("cand", cand_pool_.size(), cands)).empty())
    return e;
  if (!(e = CheckPoolSpans("index_i32", i32_pool_.size(), i32s)).empty())
    return e;
  if (!(e = CheckPoolSpans("index_bits", bits_pool_.size(), bits)).empty())
    return e;
  return std::string();
}

}  // namespace treenum
