// register: the 10-query library registered cold and then warm on a
// mid-size document, many times per run.
//
// A round registers the library through a fresh QueryCache (compile +
// pipeline build), saves that cache as an image, restores the image into a
// second fresh cache (WarmStart) and registers the library again through
// it. This is the only workload where automata compilation, the cache and
// its serialization carry the cost.
#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "automata/query_cache.h"
#include "automata/query_library.h"
#include "common.h"
#include "core/document.h"
#include "oracle.h"

namespace treebench {

namespace {

using treenum::DynamicDocument;
using treenum::QueryCache;
using treenum::Rng;
using treenum::SnapshotRef;
using treenum::UnrankedTva;

constexpr size_t kTreeNodes = 256;
constexpr size_t kLabels = 3;
// Shape of the i-th document is kShapeSeed + i: constants of the workload.
constexpr uint64_t kShapeSeed = 0x7e60;
constexpr size_t kRoundsPerSecond = 40;
constexpr size_t kRoundsPerCpu = 8;
// Rounds cycle over this many documents, so no single tree shape sets the
// run's figures (their pipeline sizes differ by up to half).
constexpr size_t kTrees = 8;
constexpr size_t kWarmupRounds = kTrees;
constexpr size_t kSubsetProbe = 16;

using K = TreeQuerySpec::Kind;

/// The library; `spec.kind` is unused for the any-subset query, which is
/// checked separately (its answers are exponentially many).
struct LibraryQuery {
  UnrankedTva tva;
  TreeQuerySpec spec;
  size_t arity;
  bool any_subset;
};

std::vector<LibraryQuery> Library() {
  std::vector<LibraryQuery> lib;
  lib.push_back({treenum::QuerySelectLabel(kLabels, 1), {K::kSelectLabel, 1, 0, 0, "select_label"}, 1, false});
  lib.push_back({treenum::QuerySelectAll(kLabels), {K::kSelectAll, 0, 0, 0, "select_all"}, 1, false});
  lib.push_back({treenum::QueryMarkedAncestor(kLabels, 1, 2), {K::kMarkedAncestor, 1, 2, 0, "marked_ancestor"}, 1, false});
  lib.push_back({treenum::QueryDescendantPairs(kLabels, 0, 1), {K::kDescendantPairs, 0, 1, 0, "descendant_pairs"}, 2, false});
  lib.push_back({treenum::QueryContainsLabel(kLabels, 2), {K::kContainsLabel, 2, 0, 0, "contains_label"}, 0, false});
  lib.push_back({treenum::QueryAnySubsetOfLabel(kLabels, 0), {K::kSelectLabel, 0, 0, 0, "any_subset"}, 0, true});
  // Compile cost grows exponentially with the distance while the pipeline
  // cost tracks only the final automaton: the cold leg's heaviest query.
  lib.push_back({treenum::QueryAncestorAtDistance(kLabels, 1, 6), {K::kAncestorAtDistance, 1, 0, 6, "ancestor_at_distance_6"}, 1, false});
  lib.push_back({treenum::QueryChildOfLabel(kLabels, 0, 2), {K::kChildOfLabel, 0, 2, 0, "child_of_label"}, 1, false});
  lib.push_back({treenum::QuerySelectLeaves(kLabels), {K::kSelectLeaves, 0, 0, 0, "select_leaves"}, 1, false});
  lib.push_back({treenum::QueryNextSibling(kLabels, 1, 0), {K::kNextSibling, 1, 0, 0, "next_sibling"}, 2, false});
  return lib;
}

}  // namespace

void RunRegister(Report& report) {
  const Args& args = report.args();
  Rng rng(args.seed);
  double oracle_s = 0;

  const std::vector<LibraryQuery> lib = Library();
  struct Input {
    MirrorTree mirror;
    treenum::UnrankedTree tree{0};
    std::vector<std::vector<Key>> expected;
  };
  std::vector<Input> inputs(kTrees);
  for (size_t t = 0; t < kTrees; ++t) {
    Input& in = inputs[t];
    in.tree = in.mirror.Generate(kTreeNodes, kLabels, kShapeSeed + t, rng);
    const uint64_t c0 = NowNs();
    for (const LibraryQuery& q : lib) {
      in.expected.push_back(q.any_subset ? std::vector<Key>{}
                                         : ExpectedTree(in.mirror, q.spec));
    }
    if (report.Broken("answers")) in.expected[6].push_back(0);
    oracle_s += static_cast<double>(NowNs() - c0) / 1e9;
  }

  auto check_answers = [&](const Input& in, const DynamicDocument& doc,
                           const std::vector<DynamicDocument::QueryHandle>& hs,
                           const std::string& check) {
    SnapshotRef snap = doc.CurrentSnapshot();
    for (size_t i = 0; i < lib.size(); ++i) {
      std::string why;
      auto cursor = doc.MakeCursorAt(snap, hs[i]);
      bool ok = true;
      if (lib[i].any_subset) {
        // Every answer is a non-empty set of 0-labelled nodes, each one
        // once; there is one iff such a node exists.
        std::vector<std::vector<NodeId>> seen;
        treenum::Assignment a;
        for (size_t k = 0; k < kSubsetProbe && cursor->Next(&a); ++k) {
          std::vector<NodeId> nodes;
          for (const auto& s : a.singletons()) {
            ok = ok && s.var == 0 && in.mirror.label(s.node) == 0;
            nodes.push_back(s.node);
          }
          ok = ok && !nodes.empty() &&
               std::find(seen.begin(), seen.end(), nodes) == seen.end();
          seen.push_back(nodes);
        }
        const bool has_zero =
            !ExpectedTree(in.mirror, {K::kSelectLabel, 0, 0, 0, ""}).empty();
        ok = ok && doc.HasAnswerAt(snap, hs[i]) == has_zero &&
             seen.empty() != has_zero;
        if (!ok) why = "any-subset answers are not subsets of 0-nodes";
      } else {
        std::vector<Key> got;
        ok = DrainKeys(cursor.get(), lib[i].arity, &got, &why) &&
             SameKeys(got, in.expected[i], &why);
      }
      report.Check(check + "." + lib[i].spec.name, ok, why);
    }
  };

  std::vector<double> cold_us, warm_us, save_us, restore_us, round_rate,
      doc_build_ms, compile_ms, image_bytes;
  std::vector<std::vector<double>> query_compile_ms(lib.size());
  bool timing = false;
  double setup_s = 0;
  const size_t rounds = kRoundsPerSecond * static_cast<size_t>(args.seconds);

  auto register_all = [&](DynamicDocument& doc,
                          std::vector<DynamicDocument::QueryHandle>* hs) {
    for (const LibraryQuery& q : lib) {
      TB_SPAN("core.DynamicDocument.Register");
      hs->push_back(doc.Register(q.tva));
    }
  };

  CpuRotor rotor;
  for (size_t round = 0; round < kWarmupRounds + rounds; ++round) {
    if (round % kRoundsPerCpu == 0) rotor.Next();
    if (round == kWarmupRounds) {
      setup_s = SinceStartS() - oracle_s;
      timing = true;
    }
    const bool last = round + 1 == kWarmupRounds + rounds;
    const Input& in = inputs[round % kTrees];
    const treenum::UnrankedTree& tree = in.tree;
    Tracer::BeginRequest();

    // Cold leg.
    QueryCache cold_cache;
    uint64_t a = NowNs();
    std::unique_ptr<DynamicDocument> cold_doc;
    {
      TB_SPAN("falgebra.DynamicDocument.ctor");
      cold_doc = std::make_unique<DynamicDocument>(tree, kLabels, &cold_cache);
    }
    const uint64_t built = NowNs();
    std::vector<DynamicDocument::QueryHandle> cold_h;
    register_all(*cold_doc, &cold_h);
    const uint64_t cold_end = NowNs();

    // Image out and back in.
    std::stringstream image(std::ios::in | std::ios::out | std::ios::binary);
    bool saved;
    {
      TB_SPAN("automata.QueryCache.SaveCache");
      saved = cold_cache.SaveCache(image);
    }
    const uint64_t save_end = NowNs();
    QueryCache warm_cache;
    std::string error;
    size_t admitted;
    {
      TB_SPAN("automata.QueryCache.WarmStart");
      admitted = warm_cache.WarmStart(image, &error);
    }
    const uint64_t restore_end = NowNs();
    report.Check("warmstart_admits_all",
                 saved && admitted == (report.Broken("warmstart_admits_all")
                                           ? lib.size() + 1
                                           : lib.size()),
                 "admitted " + std::to_string(admitted) + " " + error);

    // Warm leg.
    DynamicDocument warm_doc(tree, kLabels, &warm_cache);
    std::vector<DynamicDocument::QueryHandle> warm_h;
    const uint64_t w0 = NowNs();
    register_all(warm_doc, &warm_h);
    const uint64_t w1 = NowNs();
    const uint64_t translations = warm_cache.stats().translations;
    report.Check("warm_zero_translations",
                 translations == (report.Broken("warm_zero_translations") ? 1u : 0u),
                 std::to_string(translations) + " translations");
    report.Attempt(2 * lib.size() + 2);

    if (round < kTrees) check_answers(in, warm_doc, warm_h, "answers_warm");
    if (last) check_answers(in, *cold_doc, cold_h, "answers_cold");

    // Compile alone into a third fresh cache (traced build).
    if (kTraced && timing) {
      QueryCache fresh;
      double total_ms = 0;
      for (size_t i = 0; i < lib.size(); ++i) {
        const uint64_t c0 = NowNs();
        {
          TB_SPAN("automata.QueryCache.CompileTree");
          fresh.CompileTree(lib[i].tva);
        }
        const double ms = static_cast<double>(NowNs() - c0) / 1e6;
        query_compile_ms[i].push_back(ms);
        total_ms += ms;
      }
      compile_ms.push_back(total_ms);
    }

    if (!timing) continue;
    cold_us.push_back(static_cast<double>(cold_end - built) / 1e3);
    warm_us.push_back(static_cast<double>(w1 - w0) / 1e3);
    save_us.push_back(static_cast<double>(save_end - cold_end) / 1e3);
    restore_us.push_back(static_cast<double>(restore_end - save_end) / 1e3);
    doc_build_ms.push_back(static_cast<double>(built - a) / 1e6);
    image_bytes.push_back(static_cast<double>(image.str().size()));
    round_rate.push_back(2.0 * static_cast<double>(lib.size()) /
                         (static_cast<double>((cold_end - built) + (w1 - w0)) / 1e9));
  }

  report.EndToEnd("setup_s", setup_s, "s");
  report.EndToEnd("peak_rss_mb", PeakRssMb(), "MiB");
  report.EndToEnd("op1_p50_us", Median(cold_us), "us");
  report.EndToEnd("op2_p50_us", Median(warm_us), "us");
  report.EndToEnd("op3_p50_us", Median(restore_us), "us");
  report.EndToEnd("op4_p50_us", Median(save_us), "us");
  report.EndToEnd("ops_per_s", Median(round_rate), "1/s");

  report.Figure("register_cold_ms", Median(cold_us) / 1e3, "ms");
  report.Figure("register_warm_ms", Median(warm_us) / 1e3, "ms");
  report.Figure("cold_over_warm", Median(cold_us) / Median(warm_us), "ratio");
  for (size_t i = 0; i < lib.size(); ++i) {
    if (!lib[i].any_subset) {
      double answers = 0;
      for (const Input& in : inputs) answers += static_cast<double>(in.expected[i].size());
      report.Figure("answers_" + lib[i].spec.name, answers / kTrees, "count");
    }
  }

  if (kTraced) {
    for (size_t i = 0; i < lib.size(); ++i) {
      report.Figure("compile_ms." + lib[i].spec.name, Median(query_compile_ms[i]), "ms");
    }
  }
  report.Layer("doc_build_ms", Median(doc_build_ms), "ms");
  report.Layer("compile_ms", Median(compile_ms), "ms");
  report.Layer("pipeline_build_ms", Median(warm_us) / 1e3, "ms");
  report.Layer("warmstart_ms", Median(restore_us) / 1e3, "ms");
  report.Layer("image_bytes", Median(image_bytes), "bytes");
}

}  // namespace treebench
