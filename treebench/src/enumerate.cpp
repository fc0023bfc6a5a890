// enumerate: reads on one large, unchanging tree document.
//
// Three queries with dense output (all nodes, descendant pairs) and sparse
// output (marked ancestor) are registered once. A round alternates, per
// query, a block of first-answer probes with one full cursor drain. Nothing
// is edited in the timed region, so the update layers do no work here.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "automata/query_cache.h"
#include "automata/query_library.h"
#include "common.h"
#include "core/document.h"
#include "enumeration/enumerate.h"
#include "oracle.h"

namespace treebench {

namespace {

using treenum::DynamicDocument;
using treenum::Rng;
using treenum::SnapshotRef;

constexpr size_t kTreeNodes = 32768;
constexpr size_t kLabels = 3;
// Shapes of the document and its 1/16 copy: constants of the workload.
constexpr uint64_t kShapeSeed = 0xe0e0;
constexpr uint64_t kSmallShapeSeed = 0xe016;
constexpr size_t kProbeBlock = 64;
constexpr size_t kPinBlock = 256;
constexpr size_t kRoundsPerSecond = 8;
constexpr size_t kWarmupRounds = 2;
// The paper bounds the delay between answers independently of the tree:
// steps per answer on the document may exceed those on a copy 1/16 its
// size by at most this factor.
constexpr double kStepsFactor = 2.0;

struct Registered {
  TreeQuerySpec spec;
  size_t arity;
  DynamicDocument::QueryHandle handle;
};

/// Largest number of cursor steps between two consecutive answers (and
/// before the first / after the last), the paper's delay measure.
size_t MaxStepsPerAnswer(const DynamicDocument& doc,
                         DynamicDocument::QueryHandle h) {
  SnapshotRef snap = doc.CurrentSnapshot();
  auto cursor = doc.pipeline(h).MakeRootCursorAt(snap.root());
  if (!cursor) return 0;
  treenum::EnumOutput out;
  size_t prev = 0, worst = 0;
  for (;;) {
    const bool more = cursor->Next(&out);
    const size_t now = cursor->steps();
    worst = std::max(worst, now - prev);
    prev = now;
    if (!more) break;
  }
  return worst;
}

}  // namespace

void RunEnumerate(Report& report) {
  const Args& args = report.args();
  Rng rng(args.seed);
  double oracle_s = 0;

  MirrorTree mirror;
  treenum::UnrankedTree tree = mirror.Generate(kTreeNodes, kLabels, kShapeSeed, rng);

  const std::vector<TreeQuerySpec> specs = {
      {TreeQuerySpec::Kind::kMarkedAncestor, 1, 2, 0, "marked_ancestor"},
      {TreeQuerySpec::Kind::kSelectAll, 0, 0, 0, "select_all"},
      {TreeQuerySpec::Kind::kDescendantPairs, 0, 1, 0, "descendant_pairs"},
  };
  const std::vector<treenum::UnrankedTva> queries = {
      treenum::QueryMarkedAncestor(kLabels, 1, 2),
      treenum::QuerySelectAll(kLabels),
      treenum::QueryDescendantPairs(kLabels, 0, 1),
  };
  const size_t arity[] = {1, 1, 2};

  treenum::QueryCache cache;
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
    doc = std::make_unique<DynamicDocument>(std::move(tree), kLabels, &cache);
  }
  const double doc_build_ms = static_cast<double>(NowNs() - t0) / 1e6;
  t0 = NowNs();
  std::vector<Registered> reg;
  for (size_t i = 0; i < queries.size(); ++i) {
    TB_SPAN("core.DynamicDocument.Register");
    reg.push_back({specs[i], arity[i], doc->Register(queries[i])});
  }
  const double pipeline_build_ms = static_cast<double>(NowNs() - t0) / 1e6;

  // Independent answers, computed once: the document never changes.
  std::vector<std::vector<Key>> expected;
  {
    const uint64_t c0 = NowNs();
    for (const Registered& r : reg) expected.push_back(ExpectedTree(mirror, r.spec));
    if (report.Broken("answers")) expected[1].pop_back();
    oracle_s += static_cast<double>(NowNs() - c0) / 1e9;
  }
  auto check_all = [&](const char* check) {
    SnapshotRef snap = doc->CurrentSnapshot();
    for (size_t i = 0; i < reg.size(); ++i) {
      std::string why;
      std::vector<Key> got;
      auto cursor = doc->MakeCursorAt(snap, reg[i].handle);
      const bool ok = DrainKeys(cursor.get(), reg[i].arity, &got, &why) &&
                      SameKeys(got, expected[i], &why);
      report.Check(std::string(check) + "." + reg[i].spec.name, ok, why);
    }
  };

  // Per query: first-answer latency, drain time per 1000 answers. Each
  // query's samples stay apart, so the reported figures never mix the
  // distributions of different queries.
  std::vector<std::vector<double>> first_us(reg.size()), drain_us(reg.size());
  std::vector<double> round_rate, pin_ns, open_us;
  uint64_t answers_total = 0;
  double drain_ns_total = 0;
  bool timing = false;
  double setup_s = 0;
  const size_t rounds = kRoundsPerSecond * static_cast<size_t>(args.seconds);

  auto probe_block = [&](size_t qi) {
    Tracer::BeginRequest();
    const uint64_t a = NowNs();
    treenum::Assignment first;
    for (size_t k = 0; k < kProbeBlock; ++k) {
      TB_SPAN("probe.first_answer");
      SnapshotRef snap;
      {
        TB_SPAN("core.DynamicDocument.CurrentSnapshot");
        snap = doc->CurrentSnapshot();
      }
      std::unique_ptr<treenum::Engine::Cursor> cursor;
      {
        TB_SPAN("enumeration.DynamicDocument.MakeCursorAt");
        cursor = doc->MakeCursorAt(std::move(snap), reg[qi].handle);
      }
      TB_SPAN("enumeration.Cursor.Next");
      cursor->Next(&first);
    }
    const uint64_t b = NowNs();
    report.Attempt(kProbeBlock);
    report.Check("first_answer_nonempty", first.size() == reg[qi].arity);
    if (timing) {
      first_us[qi].push_back(static_cast<double>(b - a) / 1e3 / kProbeBlock);
    }
  };

  auto drain = [&](size_t qi, double* round_s_per_answer,
                   uint64_t* round_answers, double* round_ns) {
    Tracer::BeginRequest();
    size_t n = 0;
    treenum::Assignment a;
    const uint64_t t = NowNs();
    {
      TB_SPAN("probe.drain");
      SnapshotRef snap = doc->CurrentSnapshot();
      auto cursor = doc->MakeCursorAt(std::move(snap), reg[qi].handle);
      TB_SPAN("enumeration.Cursor.Next.drain");
      while (cursor->Next(&a)) ++n;
    }
    const uint64_t dt = NowNs() - t;
    report.Attempt();
    report.Check("drain_count." + reg[qi].spec.name, n == expected[qi].size(),
                 std::to_string(n) + " answers, want " +
                     std::to_string(expected[qi].size()));
    if (!timing) return;
    const double ns_per_answer = static_cast<double>(dt) / static_cast<double>(n);
    drain_us[qi].push_back(ns_per_answer);  // = us per 1000 answers
    *round_s_per_answer += ns_per_answer / 1e9;
    *round_ns += static_cast<double>(dt);
    *round_answers += n;
  };

  // Layer probes (traced build): pin alone, cursor open alone.
  auto layer_probes = [&](size_t qi) {
    uint64_t a = NowNs();
    for (size_t k = 0; k < kPinBlock; ++k) {
      SnapshotRef snap = doc->CurrentSnapshot();
    }
    pin_ns.push_back(static_cast<double>(NowNs() - a) / kPinBlock);
    SnapshotRef snap = doc->CurrentSnapshot();
    a = NowNs();
    for (size_t k = 0; k < kProbeBlock; ++k) {
      auto cursor = doc->MakeCursorAt(snap, reg[qi].handle);
    }
    open_us.push_back(static_cast<double>(NowNs() - a) / 1e3 / kProbeBlock);
  };

  CpuRotor rotor;
  for (size_t round = 0; round < kWarmupRounds + rounds; ++round) {
    if (round == kWarmupRounds) {
      setup_s = SinceStartS() - oracle_s;
      check_all("answers");
      timing = true;
    }
    double round_ns = 0, round_s_per_answer = 0;
    uint64_t round_answers = 0;
    rotor.Next();
    for (size_t qi = 0; qi < reg.size(); ++qi) {
      probe_block(qi);
      drain(qi, &round_s_per_answer, &round_answers, &round_ns);
      if (kTraced && timing) layer_probes(qi);
    }
    if (timing) {
      // Each query weighs alike, whatever its answer count on this seed.
      round_rate.push_back(static_cast<double>(reg.size()) / round_s_per_answer);
      answers_total += round_answers;
      drain_ns_total += round_ns;
    }
  }
  check_all("answers_end");

  // Property: delay (steps per answer) does not grow with the tree.
  double steps_max = 0, steps_ratio = 0;
  {
    Rng small_rng(args.seed ^ 0x5eed);
    MirrorTree small_mirror;
    treenum::UnrankedTree small_tree =
        small_mirror.Generate(kTreeNodes / 16, kLabels, kSmallShapeSeed,
                              small_rng);
    DynamicDocument small(std::move(small_tree), kLabels, &cache);
    for (size_t i = 0; i < reg.size(); ++i) {
      const auto h = small.Register(queries[i]);
      const double big_steps =
          static_cast<double>(MaxStepsPerAnswer(*doc, reg[i].handle));
      const double small_steps = static_cast<double>(MaxStepsPerAnswer(small, h));
      steps_max = std::max(steps_max, big_steps);
      steps_ratio = std::max(steps_ratio, big_steps / std::max(small_steps, 1.0));
    }
  }
  const double factor = report.Broken("steps_flat") ? 0.5 : kStepsFactor;
  report.Check("steps_flat", steps_ratio <= factor,
               "steps ratio " + std::to_string(steps_ratio));

  report.EndToEnd("setup_s", setup_s, "s");
  report.EndToEnd("peak_rss_mb", PeakRssMb(), "MiB");
  double first_p50 = 0;
  for (const auto& v : first_us) first_p50 += Median(v) / static_cast<double>(reg.size());
  report.EndToEnd("op1_p50_us", first_p50, "us");
  report.EndToEnd("op2_p50_us", Median(drain_us[0]), "us");
  report.EndToEnd("op3_p50_us", Median(drain_us[1]), "us");
  report.EndToEnd("op4_p50_us", Median(drain_us[2]), "us");
  report.EndToEnd("ops_per_s", Median(round_rate), "1/s");

  report.Figure("first_answer_p50_us", first_p50, "us");
  report.Figure("answers_per_s", Median(round_rate), "1/s");
  for (size_t i = 0; i < reg.size(); ++i) {
    report.Figure("first_answer_" + reg[i].spec.name + "_p50_us", Median(first_us[i]), "us");
    report.Figure("drain_" + reg[i].spec.name + "_us_per_1000", Median(drain_us[i]), "us");
    report.Figure("answers_" + reg[i].spec.name,
                  static_cast<double>(expected[i].size()), "count");
  }
  report.Figure("steps_per_answer_ratio_vs_1_16", steps_ratio, "ratio");

  report.Layer("doc_build_ms", doc_build_ms, "ms");
  report.Layer("compile_ms", compile_ms, "ms");
  report.Layer("pipeline_build_ms", pipeline_build_ms, "ms");
  report.Layer("pin_ns", Median(pin_ns), "ns");
  report.Layer("cursor_open_us", Median(open_us), "us");
  report.Layer("ns_per_answer",
               answers_total ? drain_ns_total / static_cast<double>(answers_total) : 0,
               "ns");
  report.Layer("steps_per_answer_max", steps_max, "count");
}

}  // namespace treebench
