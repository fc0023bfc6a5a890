// doc_edits: writes on one large tree document with four registered
// queries and one word document with a two-capture spanner.
//
// One seeded script drives both documents. A round interleaves its
// operation kinds (single leaf edits, word edits, one 64-edit batch, one
// SubtreeMove), so a slow phase of the host falls on every metric alike.
// Inserts and deletes are equally likely, so the sizes stay near their
// start, and every run of a given --seconds does the same number of rounds.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "automata/query_cache.h"
#include "automata/query_library.h"
#include "automata/regex_spanner.h"
#include "common.h"
#include "core/document.h"
#include "oracle.h"

namespace treebench {

namespace {

using treenum::AttachWhere;
using treenum::DynamicDocument;
using treenum::Edit;
using treenum::Rng;
using treenum::SnapshotRef;
using treenum::UpdateStats;

constexpr size_t kTreeNodes = 4096;
constexpr size_t kWordLetters = 4096;
constexpr size_t kLabels = 3;
// Shape of the tree document: a constant of the workload (see Generate).
constexpr uint64_t kShapeSeed = 0xd0c5;
constexpr size_t kBatch = 64;
constexpr size_t kMaxMoveSubtree = 64;
constexpr size_t kSinglesPerRound = 4;
constexpr size_t kWordEditsPerRound = 4;
constexpr size_t kRoundsPerSecond = 100;
constexpr size_t kRoundsPerCpu = 25;
constexpr size_t kWarmupRounds = 8;
constexpr size_t kCheckpoints = 2;
constexpr size_t kPinnedRounds = 20;
// Boxes refreshed by one single edit, per pipeline, may not exceed
// kBoxesPerLog2 * log2(n): a refresh touches the changed leaf's ancestors in
// the balanced term. The term of an n-node tree has about 2n nodes and its
// height envelope is 4 * log2(size) + 6 (falgebra/builder.h), so a
// leaf-to-root path plus the few nodes an insert creates stays below
// (4 * log2(n) + 13) boxes, which is under 6 * log2(n) for n >= 2^7.
constexpr double kBoxesPerLog2 = 6.0;

/// One registered query with the benchmark's description of it.
struct Registered {
  TreeQuerySpec spec;
  size_t arity;
  DynamicDocument::QueryHandle handle;
};

Edit NextEdit(const MirrorTree& m, Rng& rng) {
  const size_t r = rng.Index(10);
  const Label l = static_cast<Label>(rng.Index(kLabels));
  if (r >= 4 && r <= 6) {
    const NodeId n = m.Pick(rng);
    if (r == 6 && n != m.root()) return Edit::InsertRightSibling(n, l);
    return Edit::InsertFirstChild(n, l);
  }
  if (r >= 7) {
    const NodeId n = m.PickLeaf(rng);
    if (n != m.root()) return Edit::DeleteLeaf(n);
  }
  return Edit::Relabel(m.Pick(rng), l);
}

struct Move {
  NodeId v;
  NodeId dst;
  bool first_child;
};

Move NextMove(const MirrorTree& m, Rng& rng) {
  NodeId v = m.root();
  for (int tries = 0; tries < 16; ++tries) {
    NodeId c = m.Pick(rng);
    if (c != m.root() && m.SubtreeSizeUpTo(c, kMaxMoveSubtree) <= kMaxMoveSubtree) {
      v = c;
      break;
    }
  }
  if (v == m.root()) v = m.PickLeaf(rng);
  NodeId dst = m.Pick(rng);
  while (m.InSubtree(dst, v)) dst = m.Pick(rng);
  const bool first_child = dst == m.root() || rng.Flip(0.5);
  return {v, dst, first_child};
}

/// The answers of every query, for one state of the documents.
struct Expected {
  std::vector<std::vector<Key>> tree;
  std::vector<Key> word;
};

}  // namespace

void RunDocEdits(Report& report) {
  const Args& args = report.args();
  Rng rng(args.seed);
  double oracle_s = 0;  // benchmark-side answer computation inside set-up

  // ---- Inputs ----
  MirrorTree mirror;
  treenum::UnrankedTree tree = mirror.Generate(kTreeNodes, kLabels, kShapeSeed, rng);
  MirrorWord mword;
  mword.letters.resize(kWordLetters);
  for (Label& l : mword.letters) l = static_cast<Label>(rng.Index(kLabels));

  // ---- Set-up: compile, build, register ----
  treenum::QueryCache cache;
  const std::vector<TreeQuerySpec> specs = {
      {TreeQuerySpec::Kind::kSelectLabel, 0, 0, 0, "select_label"},
      {TreeQuerySpec::Kind::kMarkedAncestor, 1, 2, 0, "marked_ancestor"},
      {TreeQuerySpec::Kind::kDescendantPairs, 0, 1, 0, "descendant_pairs"},
      {TreeQuerySpec::Kind::kNextSibling, 1, 0, 0, "next_sibling"},
  };
  const std::vector<treenum::UnrankedTva> queries = {
      treenum::QuerySelectLabel(kLabels, 0),
      treenum::QueryMarkedAncestor(kLabels, 1, 2),
      treenum::QueryDescendantPairs(kLabels, 0, 1),
      treenum::QueryNextSibling(kLabels, 1, 0),
  };
  const size_t arity[] = {1, 1, 2, 2};
  double compile_ms = 0;
  for (const auto& q : queries) {
    TB_SPAN("automata.QueryCache.CompileTree");
    const uint64_t t0 = NowNs();
    cache.CompileTree(q);
    compile_ms += static_cast<double>(NowNs() - t0) / 1e6;
  }
  uint64_t t0 = NowNs();
  std::unique_ptr<DynamicDocument> doc;
  {
    TB_SPAN("falgebra.DynamicDocument.ctor");
    doc = std::make_unique<DynamicDocument>(tree, kLabels, &cache);
  }
  const double doc_build_ms = static_cast<double>(NowNs() - t0) / 1e6;
  std::vector<Registered> reg;
  t0 = NowNs();
  for (size_t i = 0; i < queries.size(); ++i) {
    TB_SPAN("core.DynamicDocument.Register");
    reg.push_back({specs[i], arity[i], doc->Register(queries[i])});
  }
  const double pipeline_build_ms = static_cast<double>(NowNs() - t0) / 1e6;

  std::unique_ptr<DynamicDocument> wdoc;
  {
    TB_SPAN("falgebra.DynamicDocument.ctor");
    wdoc = std::make_unique<DynamicDocument>(mword.letters, kLabels, &cache);
  }
  DynamicDocument::QueryHandle wq;
  {
    TB_SPAN("core.DynamicDocument.Register");
    wq = wdoc->Register(
        treenum::CompileRegexSpanner(".*<0:a><1:b>.*", kLabels, 2));
  }
  mword.ids.resize(kWordLetters);
  for (size_t i = 0; i < kWordLetters; ++i) {
    mword.ids[i] = wdoc->word_encoding().PositionId(i);
  }

  // Per-layer reference documents (traced build): the same script on
  // documents with no registered query isolates the term update.
  std::unique_ptr<DynamicDocument> bare, wbare;
  if (kTraced) {
    bare = std::make_unique<DynamicDocument>(tree, kLabels, &cache);
    wbare = std::make_unique<DynamicDocument>(mword.letters, kLabels, &cache);
  }
  tree = treenum::UnrankedTree(0);  // the documents hold their own copies

  auto compute_expected = [&]() {
    const uint64_t c0 = NowNs();
    Expected e;
    for (const Registered& r : reg) e.tree.push_back(ExpectedTree(mirror, r.spec));
    e.word = ExpectedAdjacent(mword, 0, 1);
    if (report.Broken("answers")) e.tree[0].push_back(kEmptyAnswer - 1);
    oracle_s += static_cast<double>(NowNs() - c0) / 1e9;
    return e;
  };
  auto check_answers = [&](const SnapshotRef& snap, const SnapshotRef& wsnap,
                           const Expected& e, const char* check) {
    std::string why;
    for (size_t i = 0; i < reg.size(); ++i) {
      std::vector<Key> got;
      auto cursor = doc->MakeCursorAt(snap, reg[i].handle);
      bool ok = DrainKeys(cursor.get(), reg[i].arity, &got, &why) &&
                SameKeys(got, e.tree[i], &why);
      report.Check(std::string(check) + "." + reg[i].spec.name, ok, why);
    }
    std::vector<Key> got;
    auto cursor = wdoc->MakeCursorAt(wsnap, wq);
    bool ok = DrainKeys(cursor.get(), 2, &got, &why) &&
              SameKeys(got, e.word, &why);
    report.Check(std::string(check) + ".adjacent_letters", ok, why);
  };

  // ---- Samples ----
  // Single and word edits are also kept per kind (relabel / insert first
  // child / insert right sibling / delete; replace / insert / erase): the
  // kinds cost differently, and a median over their mixture jumps between
  // them when the mix shifts a little.
  std::vector<double> edit_us, batch_us, move_us, word_us, round_rate;
  std::vector<std::vector<double>> edit_kind_us(4), word_kind_us(3);
  std::vector<double> term_edit_us, term_move_us, word_term_us;
  double boxes_single = 0, boxes_batched = 0, rebuilt = 0, path_copies = 0,
         allocs = 0, worst_box_ratio = 0;
  size_t singles = 0, batched_edits = 0;
  uint64_t last_epoch = doc->CurrentSnapshot().epoch();
  uint64_t last_wepoch = wdoc->CurrentSnapshot().epoch();

  const size_t rounds = kRoundsPerSecond * static_cast<size_t>(args.seconds);
  const size_t total_rounds = kWarmupRounds + rounds;
  bool timing = false;
  double setup_s = 0;

  auto visible = [&](const SnapshotRef& s, uint64_t* last) {
    const bool ok = s.epoch() > *last;
    *last = s.epoch();
    return ok;
  };

  auto single_edit = [&](double* round_ns) {
    const Edit e = NextEdit(mirror, rng);
    NodeId u = treenum::kNoNode;
    const uint64_t copies0 = doc->term().path_copies();
    const uint64_t allocs0 = AllocsSoFar();
    Tracer::BeginRequest();
    const uint64_t a = NowNs();
    UpdateStats st;
    SnapshotRef s;
    {
      TB_SPAN("core.DynamicDocument.ApplyEdit");
      st = doc->ApplyEdit(e, &u);
    }
    {
      TB_SPAN("core.DynamicDocument.CurrentSnapshot");
      s = doc->CurrentSnapshot();
    }
    const uint64_t b = NowNs();
    report.Attempt();
    report.Check("edit_visible", visible(s, &last_epoch));
    mirror.Apply(e, u);
    if (bare) {
      const uint64_t c = NowNs();
      NodeId u2 = treenum::kNoNode;
      {
        TB_SPAN("falgebra.DynamicDocument.ApplyEdit.no_query");
        bare->ApplyEdit(e, &u2);
      }
      if (timing) term_edit_us.push_back(static_cast<double>(NowNs() - c) / 1e3);
    }
    if (!timing) return;
    *round_ns += static_cast<double>(b - a);
    edit_us.push_back(static_cast<double>(b - a) / 1e3);
    edit_kind_us[static_cast<size_t>(e.kind)].push_back(edit_us.back());
    ++singles;
    boxes_single += static_cast<double>(st.boxes_recomputed);
    rebuilt += static_cast<double>(st.rebuilt_size);
    path_copies += static_cast<double>(doc->term().path_copies() - copies0);
    allocs += static_cast<double>(AllocsSoFar() - allocs0);
    if (st.rebuilt_size == 0) {
      const double per_pipeline = static_cast<double>(st.boxes_recomputed) /
                                  static_cast<double>(doc->num_pipelines());
      const double ratio =
          per_pipeline / std::log2(static_cast<double>(doc->size()));
      worst_box_ratio = std::max(worst_box_ratio, ratio);
    }
  };

  auto batch = [&](double* round_ns) {
    Tracer::BeginRequest();
    uint64_t spent = 0;
    uint64_t a = NowNs();
    {
      TB_SPAN("core.DynamicDocument.BeginBatch");
      doc->BeginBatch();
    }
    spent += NowNs() - a;
    std::vector<Edit> edits;
    for (size_t i = 0; i < kBatch; ++i) {
      const Edit e = NextEdit(mirror, rng);
      NodeId u = treenum::kNoNode;
      a = NowNs();
      {
        TB_SPAN("core.DynamicDocument.ApplyEdit");
        doc->ApplyEdit(e, &u);
      }
      spent += NowNs() - a;
      mirror.Apply(e, u);
      edits.push_back(e);
    }
    a = NowNs();
    UpdateStats st;
    SnapshotRef s;
    {
      TB_SPAN("core.DynamicDocument.CommitBatch");
      st = doc->CommitBatch();
    }
    {
      TB_SPAN("core.DynamicDocument.CurrentSnapshot");
      s = doc->CurrentSnapshot();
    }
    spent += NowNs() - a;
    report.Attempt(kBatch);
    report.Check("batch_visible", visible(s, &last_epoch));
    if (bare) {
      bare->BeginBatch();
      for (const Edit& e : edits) bare->ApplyEdit(e);
      bare->CommitBatch();
    }
    if (!timing) return;
    *round_ns += static_cast<double>(spent);
    batch_us.push_back(static_cast<double>(spent) / 1e3);
    boxes_batched += static_cast<double>(st.boxes_recomputed);
    batched_edits += kBatch;
  };

  auto move = [&](double* round_ns) {
    const Move m = NextMove(mirror, rng);
    const AttachWhere where =
        m.first_child ? AttachWhere::kFirstChild : AttachWhere::kRightSibling;
    Tracer::BeginRequest();
    const uint64_t a = NowNs();
    SnapshotRef s;
    {
      TB_SPAN("core.DynamicDocument.SubtreeMove");
      doc->SubtreeMove(m.v, m.dst, where);
    }
    {
      TB_SPAN("core.DynamicDocument.CurrentSnapshot");
      s = doc->CurrentSnapshot();
    }
    const uint64_t b = NowNs();
    report.Attempt();
    report.Check("move_visible", visible(s, &last_epoch));
    mirror.Move(m.v, m.dst, m.first_child);
    if (bare) {
      const uint64_t c = NowNs();
      {
        TB_SPAN("falgebra.DynamicDocument.SubtreeMove.no_query");
        bare->SubtreeMove(m.v, m.dst, where);
      }
      if (timing) term_move_us.push_back(static_cast<double>(NowNs() - c) / 1e3);
    }
    if (!timing) return;
    *round_ns += static_cast<double>(b - a);
    move_us.push_back(static_cast<double>(b - a) / 1e3);
  };

  auto word_edit = [&](double* round_ns) {
    const size_t n = mword.letters.size();
    const size_t r = rng.Index(10);
    const Label l = static_cast<Label>(rng.Index(kLabels));
    const int kind = r < 4 ? 0 : (r < 7 || n < 2 ? 1 : 2);
    const size_t pos = rng.Index(kind == 1 ? n + 1 : n);
    auto apply = [&](DynamicDocument& d) {
      if (kind == 0) {
        d.Replace(pos, l);
      } else if (kind == 1) {
        d.Insert(pos, l);
      } else {
        d.Erase(pos);
      }
    };
    Tracer::BeginRequest();
    const uint64_t a = NowNs();
    SnapshotRef s;
    {
      TB_SPAN("core.DynamicDocument.WordEdit");
      apply(*wdoc);
    }
    {
      TB_SPAN("core.DynamicDocument.CurrentSnapshot");
      s = wdoc->CurrentSnapshot();
    }
    const uint64_t b = NowNs();
    report.Attempt();
    report.Check("word_edit_visible", visible(s, &last_wepoch));
    if (kind == 0) {
      mword.letters[pos] = l;
    } else if (kind == 1) {
      mword.letters.insert(mword.letters.begin() + pos, l);
      mword.ids.insert(mword.ids.begin() + pos,
                       wdoc->word_encoding().PositionId(pos));
    } else {
      mword.letters.erase(mword.letters.begin() + pos);
      mword.ids.erase(mword.ids.begin() + pos);
    }
    if (wbare) {
      const uint64_t c = NowNs();
      {
        TB_SPAN("falgebra.DynamicDocument.WordEdit.no_query");
        apply(*wbare);
      }
      if (timing) word_term_us.push_back(static_cast<double>(NowNs() - c) / 1e3);
    }
    if (!timing) return;
    *round_ns += static_cast<double>(b - a);
    word_us.push_back(static_cast<double>(b - a) / 1e3);
    word_kind_us[static_cast<size_t>(kind)].push_back(word_us.back());
  };

  // A snapshot pinned before the script must still return the pre-script
  // answers kPinnedRounds rounds later. The pin is then released, so the
  // versions it keeps alive do not pile up over the whole run.
  SnapshotRef held, wheld;
  Expected held_expected;
  auto checkpoint = [&]() {
    SnapshotRef s = doc->CurrentSnapshot();
    SnapshotRef ws = wdoc->CurrentSnapshot();
    check_answers(s, ws, compute_expected(), "answers");
  };

  // ---- The script ----
  CpuRotor rotor;
  const size_t checkpoint_every = std::max<size_t>(1, rounds / kCheckpoints);
  for (size_t round = 0; round < total_rounds; ++round) {
    if (round == kWarmupRounds) {
      // Set-up ends here. The first checkpoint (the benchmark's own answer
      // check) pins the pre-script state.
      setup_s = SinceStartS() - oracle_s;
      held = doc->CurrentSnapshot();
      wheld = wdoc->CurrentSnapshot();
      held_expected = compute_expected();
      check_answers(held, wheld, held_expected, "answers");
      if (report.Broken("pinned_snapshot")) held_expected.word.push_back(0);
      timing = true;
    }
    if (round % kRoundsPerCpu == 0) rotor.Next();
    double round_ns = 0;
    for (size_t i = 0; i < kSinglesPerRound; ++i) {
      single_edit(&round_ns);
      word_edit(&round_ns);
      if (i == 1) batch(&round_ns);
    }
    move(&round_ns);
    if (timing) {
      const double ops = kSinglesPerRound + kBatch + 1 + kWordEditsPerRound;
      round_rate.push_back(ops / (round_ns / 1e9));
      const size_t done = round + 1 - kWarmupRounds;
      if (done == kPinnedRounds || round + 1 == total_rounds) {
        if (held) check_answers(held, wheld, held_expected, "pinned_snapshot");
        held.Reset();
        wheld.Reset();
      }
      if (done % checkpoint_every == 0 || round + 1 == total_rounds) {
        checkpoint();
      }
    }
  }
  // Property: per-pipeline boxes refreshed by a single (non-rebalancing)
  // edit stay within c * log2(n).
  const double box_bound = report.Broken("boxes_log_bound") ? 0.0 : kBoxesPerLog2;
  report.Check("boxes_log_bound", worst_box_ratio <= box_bound,
               "worst boxes/(pipeline*log2 n) = " + std::to_string(worst_box_ratio));

  auto mean_of_medians = [](const std::vector<std::vector<double>>& by_kind) {
    double sum = 0;
    size_t n = 0;
    for (const auto& v : by_kind) {
      if (v.empty()) continue;
      sum += Median(v);
      ++n;
    }
    return n ? sum / static_cast<double>(n) : 0.0;
  };
  const double e50 = mean_of_medians(edit_kind_us);
  const double w50 = mean_of_medians(word_kind_us);
  report.EndToEnd("setup_s", setup_s, "s");
  report.EndToEnd("peak_rss_mb", PeakRssMb(), "MiB");
  report.EndToEnd("op1_p50_us", e50, "us");
  report.EndToEnd("op2_p50_us", Median(batch_us), "us");
  report.EndToEnd("op3_p50_us", Median(move_us), "us");
  report.EndToEnd("op4_p50_us", w50, "us");
  report.EndToEnd("ops_per_s", Median(round_rate), "1/s");

  report.Figure("edit_p50_us", e50, "us");
  report.Figure("edit_p99_us", Quantile(edit_us, 0.99), "us");
  report.Figure("batch_p50_us", Median(batch_us), "us");
  report.Figure("move_p50_us", Median(move_us), "us");
  report.Figure("word_edit_p50_us", w50, "us");
  const char* edit_kinds[] = {"relabel", "insert_first_child", "insert_right_sibling", "delete_leaf"};
  for (size_t k = 0; k < 4; ++k) {
    report.Figure(std::string("edit_p50_us.") + edit_kinds[k], Median(edit_kind_us[k]), "us");
  }
  report.Figure("edit_samples", static_cast<double>(edit_us.size()), "count");
  report.Figure("worst_boxes_per_pipeline_log2n", worst_box_ratio, "ratio");
  report.Figure("tree_size_end", static_cast<double>(doc->size()), "count");
  report.Figure("word_size_end", static_cast<double>(wdoc->size()), "count");

  const double s = static_cast<double>(std::max<size_t>(singles, 1));
  report.Layer("doc_build_ms", doc_build_ms, "ms");
  report.Layer("compile_ms", compile_ms, "ms");
  report.Layer("pipeline_build_ms", pipeline_build_ms, "ms");
  report.Layer("term_edit_us", Median(term_edit_us), "us");
  report.Layer("term_move_us", Median(term_move_us), "us");
  report.Layer("word_term_edit_us", Median(word_term_us), "us");
  report.Layer("refresh_us_per_edit", e50 - Median(term_edit_us), "us");
  report.Layer("rebuilt_nodes_per_edit", rebuilt / s, "count");
  report.Layer("path_copies_per_edit", path_copies / s, "count");
  report.Layer("boxes_per_edit", boxes_single / s, "count");
  report.Layer("boxes_per_batched_edit",
               boxes_batched / static_cast<double>(std::max<size_t>(batched_edits, 1)),
               "count");
  report.Layer("allocs_per_edit", allocs / s, "count");
}

}  // namespace treebench
