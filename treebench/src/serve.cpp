// serve: a DocumentShardServer with 2 shards and 64 tenant documents of
// about 1k nodes, one generator thread (this one) and one reader thread.
//
// A round submits a fixed budget flat out and drains (throughput), then
// replays the same command mix open-loop at a fixed offered rate chosen
// below what two shards sustain, and drains again (latency). Commands are
// mixed leaf edits with 5% structural moves/deletes and 1% query churn.
// On documents this small the per-command fixed costs (queueing, group
// commit, stealing, snapshot publish, cache-served re-registration)
// dominate instead of O(log n) box work.
#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "automata/query_cache.h"
#include "automata/query_library.h"
#include "common.h"
#include "core/document.h"
#include "oracle.h"
#include "serving/shard_server.h"
#include "serving/workload.h"
#include "util/latency_histogram.h"

namespace treebench {

namespace {

using treenum::DynamicDocument;
using treenum::LatencyHistogram;
using treenum::Rng;
using treenum::SnapshotRef;
using treenum::UnrankedTva;
using treenum::serving::CommandScript;
using treenum::serving::DocCommand;
using treenum::serving::DocumentShardServer;
using treenum::serving::PoissonArrivals;
using treenum::serving::WorkloadOptions;

constexpr size_t kShards = 2;
constexpr size_t kDocs = 64;
constexpr size_t kDocNodes = 1024;
constexpr size_t kLabels = 3;
// Shape of tenant i's starting tree is kShapeSeed + i (see Generate).
constexpr uint64_t kShapeSeed = 0x5e7e;
// Offered rate of the open-loop phase: a constant of the workload, set where
// two shards keep no backlog (submit->commit p50 stays near 0.1 ms).
constexpr double kOpenRate = 5000.0;
constexpr size_t kOpenCmdsPerRound = 2500;
constexpr size_t kSatCmdsPerRound = 5000;
constexpr size_t kRoundsPerTenSeconds = 14;
constexpr size_t kWarmupRounds = 1;
constexpr size_t kReadAnswers = 16;
constexpr size_t kReadDrainEvery = 8;
// Client-side submit calls are sub-microsecond, so their cost is summed over
// this many calls per sample.
constexpr size_t kSubmitBlock = 50;
// Tenants whose commands are replayed on a document with no registered
// query (traced build), for the term-update time.
constexpr size_t kBareTenants = 4;

struct Tenant {
  DocumentShardServer::DocRef doc;
  DocumentShardServer::QueryRef query;
  DynamicDocument::QueryHandle churn_handle = 0;
  bool churn_live = false;
  CommandScript script;
  std::unique_ptr<DynamicDocument> bare;
};

/// Central-band estimate of a histogram's median (mean of the 0.45..0.55
/// quantiles), finer than the histogram's ~3% bucket width.
double CentralP50Us(const LatencyHistogram& h) {
  double s = 0;
  for (int i = 0; i <= 10; ++i) {
    s += static_cast<double>(h.Quantile(0.45 + 0.01 * i));
  }
  return s / 11.0 / 1e3;
}

}  // namespace

void RunServe(Report& report) {
  const Args& args = report.args();
  Rng rng(args.seed);

  treenum::QueryCache cache;
  const UnrankedTva query = treenum::QueryMarkedAncestor(kLabels, 1, 2);
  const UnrankedTva churn_query = treenum::QuerySelectLabel(kLabels, 1);
  const TreeQuerySpec spec{TreeQuerySpec::Kind::kMarkedAncestor, 1, 2, 0,
                           "marked_ancestor"};
  uint64_t t0 = NowNs();
  cache.CompileTree(query);
  cache.CompileTree(churn_query);
  const double compile_ms = static_cast<double>(NowNs() - t0) / 1e6;

  DocumentShardServer::Options so;
  so.shards = kShards;
  so.query_cache = &cache;
  DocumentShardServer server(so);

  WorkloadOptions wo;
  wo.num_labels = kLabels;
  wo.structural_fraction = 0.05;
  wo.churn_fraction = 0.01;
  wo.min_size = kDocNodes / 2;

  std::vector<std::unique_ptr<Tenant>> tenants;
  double doc_build_ms = 0, pipeline_build_ms = 0;
  for (size_t i = 0; i < kDocs; ++i) {
    MirrorTree gen;
    treenum::UnrankedTree tree = gen.Generate(kDocNodes, kLabels, kShapeSeed + i, rng);
    auto t = std::make_unique<Tenant>(Tenant{
        {}, {}, 0, false, CommandScript(tree, rng.engine()(), wo), nullptr});
    if (kTraced && i < kBareTenants) {
      t->bare = std::make_unique<DynamicDocument>(tree, kLabels, &cache);
    }
    uint64_t a = NowNs();
    {
      TB_SPAN("serving.DocumentShardServer.AddDocument");
      t->doc = server.AddDocument(std::move(tree), kLabels);
    }
    uint64_t b = NowNs();
    {
      TB_SPAN("serving.DocumentShardServer.RegisterQuery");
      t->query = server.RegisterQuery(t->doc, query);
    }
    doc_build_ms += static_cast<double>(b - a) / 1e6;
    pipeline_build_ms += static_cast<double>(NowNs() - b) / 1e6;
    tenants.push_back(std::move(t));
  }

  // ---- Reader thread ----
  std::atomic<bool> stop{false};
  std::atomic<bool> recording{false};
  std::vector<double> read_us, read_drain_us, reader_pin_ns;
  std::atomic<uint64_t> reads{0};
  std::thread reader([&, seed = rng.engine()()] {
    Rng r(seed);
    treenum::Assignment a;
    uint64_t k = 0;
    while (!stop.load(std::memory_order_acquire)) {
      Tenant& t = *tenants[r.Index(tenants.size())];
      const bool full = ++k % kReadDrainEvery == 0;
      Tracer::BeginRequest();
      const uint64_t s = NowNs();
      SnapshotRef snap;
      {
        TB_SPAN("serving.DocumentShardServer.Pin");
        snap = server.Pin(t.doc);
      }
      const uint64_t pinned = NowNs();
      size_t n = 0;
      {
        TB_SPAN("enumeration.ReaderView.read");
        if (t.query.view.HasAnswerAt(snap)) {
          auto cursor = t.query.view.MakeCursorAt(snap);
          while ((full || n < kReadAnswers) && cursor->Next(&a)) ++n;
        }
      }
      snap.Reset();
      const uint64_t e = NowNs();
      reads.fetch_add(1, std::memory_order_relaxed);
      if (recording.load(std::memory_order_acquire)) {
        (full ? read_drain_us : read_us).push_back(static_cast<double>(e - s) / 1e3);
        reader_pin_ns.push_back(static_cast<double>(pinned - s));
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  // ---- Generator ----
  uint64_t edits_submitted = 0, structural_submitted = 0;
  std::vector<double> submit_ns, submit_us, term_edit_us, register_us;
  uint64_t block_ns = 0;
  size_t block_calls = 0;
  bool timing = false;
  // Time inside one SubmitEdit/SubmitStructural call. Flat-out calls are
  // also summed into blocks: the client's cost of handing over a command
  // while both shards are busy, which involves no wait on another thread.
  auto record_submit = [&](uint64_t ns, bool open_phase) {
    if (kTraced && timing) submit_ns.push_back(static_cast<double>(ns));
    if (!timing || open_phase) return;
    block_ns += ns;
    if (++block_calls == kSubmitBlock) {
      submit_us.push_back(static_cast<double>(block_ns) / kSubmitBlock / 1e3);
      block_ns = 0;
      block_calls = 0;
    }
  };
  auto submit = [&](Tenant& t, bool open_phase) {
    const DocCommand c = t.script.Next();
    Tracer::BeginRequest();
    switch (c.kind) {
      case DocCommand::Kind::kEdit: {
        const uint64_t a = NowNs();
        {
          TB_SPAN("serving.DocumentShardServer.SubmitEdit");
          server.SubmitEdit(t.doc, c.edit);
        }
        record_submit(NowNs() - a, open_phase);
        ++edits_submitted;
        if (t.bare) {
          const uint64_t b = NowNs();
          t.bare->ApplyEdit(c.edit);
          if (timing) term_edit_us.push_back(static_cast<double>(NowNs() - b) / 1e3);
        }
        break;
      }
      case DocCommand::Kind::kStructural: {
        const uint64_t a = NowNs();
        {
          TB_SPAN("serving.DocumentShardServer.SubmitStructural");
          server.SubmitStructural(t.doc, c.structural);
        }
        record_submit(NowNs() - a, open_phase);
        ++structural_submitted;
        if (t.bare) {
          const auto& op = c.structural;
          if (op.kind == treenum::serving::StructuralOp::Kind::kSubtreeMove) {
            t.bare->SubtreeMove(op.v, op.dst, op.where);
          } else {
            t.bare->SubtreeDelete(op.v);
          }
        }
        break;
      }
      case DocCommand::Kind::kRegister: {
        const uint64_t a = NowNs();
        {
          TB_SPAN("serving.DocumentShardServer.RegisterQuery");
          t.churn_handle = server.RegisterQuery(t.doc, churn_query).handle;
        }
        if (timing && open_phase) {
          register_us.push_back(static_cast<double>(NowNs() - a) / 1e3);
        }
        t.churn_live = true;
        break;
      }
      case DocCommand::Kind::kUnregister:
        if (t.churn_live) {
          TB_SPAN("serving.DocumentShardServer.UnregisterQuery");
          server.UnregisterQuery(t.doc, t.churn_handle);
          t.churn_live = false;
        }
        break;
    }
  };

  std::vector<double> commit_p50, commit_p99, commit_p999, lag_us;
  // Flat-out throughput is the whole timed budget over its whole time: a
  // round's rate swings by +-20% with how commands happen to group-commit,
  // and the ratio of sums weighs every command alike.
  double sat_cmds = 0, sat_total_s = 0;
  double setup_s = 0;
  size_t next_tenant = 0;
  uint64_t arrival_seed = rng.engine()();
  const size_t rounds =
      std::max<size_t>(1, kRoundsPerTenSeconds * static_cast<size_t>(args.seconds) / 10);
  for (size_t round = 0; round < kWarmupRounds + rounds; ++round) {
    if (round == kWarmupRounds) {
      setup_s = SinceStartS();
      timing = true;
    }
    // Saturation: a fixed budget as fast as the generator can submit.
    uint64_t a = NowNs();
    for (size_t k = 0; k < kSatCmdsPerRound; ++k) {
      submit(*tenants[next_tenant++ % kDocs], false);
    }
    {
      TB_SPAN("serving.DocumentShardServer.Drain");
      server.Drain();
    }
    const double sat_s = static_cast<double>(NowNs() - a) / 1e9;
    server.ResetEditLatency();

    // Open loop at the fixed offered rate; latency counts from submission,
    // and the generator's lateness is recorded beside it.
    PoissonArrivals arrivals(kOpenRate, arrival_seed + round);
    recording.store(timing, std::memory_order_release);
    uint64_t due = NowNs();
    for (size_t k = 0; k < kOpenCmdsPerRound; ++k) {
      due += arrivals.NextGapNs();
      for (;;) {
        const uint64_t now = NowNs();
        if (now >= due) break;
        if (due - now > 100000) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 50000));
        }
      }
      if (timing) lag_us.push_back(static_cast<double>(NowNs() - due) / 1e3);
      submit(*tenants[next_tenant++ % kDocs], true);
    }
    server.Drain();
    recording.store(false, std::memory_order_release);
    report.Attempt(kSatCmdsPerRound + kOpenCmdsPerRound);
    if (!timing) continue;
    LatencyHistogram h;
    server.MergeEditLatency(&h);
    sat_cmds += static_cast<double>(kSatCmdsPerRound);
    sat_total_s += sat_s;
    commit_p50.push_back(CentralP50Us(h));
    commit_p99.push_back(static_cast<double>(h.Quantile(0.99)) / 1e3);
    commit_p999.push_back(static_cast<double>(h.Quantile(0.999)) / 1e3);
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  server.Drain();

  // ---- Checks ----
  const DocumentShardServer::Stats st = server.stats();
  const uint64_t want_edits =
      edits_submitted + (report.Broken("serve_counters") ? 1 : 0);
  report.Check("serve_counters",
               st.edits_applied == want_edits &&
                   st.structural_applied == structural_submitted,
               "applied " + std::to_string(st.edits_applied) + "/" +
                   std::to_string(st.structural_applied) + ", submitted " +
                   std::to_string(edits_submitted) + "/" +
                   std::to_string(structural_submitted));
  size_t mirror_mismatch = 0, answer_mismatch = 0, nodes_end = 0;
  std::string why;
  for (size_t i = 0; i < tenants.size(); ++i) {
    Tenant& t = *tenants[i];
    const treenum::UnrankedTree& served = server.document(t.doc).tree();
    nodes_end += served.size();
    if (!(served == t.script.mirror())) ++mirror_mismatch;
    MirrorTree m;
    m.Adopt(t.script.mirror());
    std::vector<Key> want = ExpectedTree(m, spec);
    if (i == 0 && report.Broken("serve_answers")) want.push_back(0);
    std::vector<Key> got;
    SnapshotRef snap = server.Pin(t.doc);
    auto cursor = t.query.view.MakeCursorAt(snap);
    if (!DrainKeys(cursor.get(), 1, &got, &why) || !SameKeys(got, want, &why)) {
      ++answer_mismatch;
    }
  }
  if (report.Broken("serve_mirrors")) mirror_mismatch += tenants.size();
  report.Check("serve_mirrors", mirror_mismatch == 0,
               std::to_string(mirror_mismatch) + " documents differ from their mirror");
  report.Check("serve_answers", answer_mismatch == 0,
               std::to_string(answer_mismatch) + " documents answer wrongly: " + why);

  report.EndToEnd("setup_s", setup_s, "s");
  report.EndToEnd("peak_rss_mb", PeakRssMb(), "MiB");
  report.EndToEnd("op1_p50_us", Median(commit_p50), "us");
  report.EndToEnd("op2_p50_us", Median(read_us), "us");
  report.EndToEnd("op3_p50_us", Median(read_drain_us), "us");
  report.EndToEnd("op4_p50_us", Median(submit_us), "us");
  report.EndToEnd("ops_per_s", sat_cmds / sat_total_s, "1/s");

  report.Figure("serve_cmds_per_s", sat_cmds / sat_total_s, "1/s");
  report.Figure("commit_p50_us", Median(commit_p50), "us");
  report.Figure("commit_p99_us", Median(commit_p99), "us");
  report.Figure("commit_p999_us", Median(commit_p999), "us");
  report.Figure("generator_lag_p50_us", Median(lag_us), "us");
  report.Figure("generator_lag_p99_us", Quantile(lag_us, 0.99), "us");
  report.Figure("read_p50_us", Median(read_us), "us");
  report.Figure("read_p99_us", Quantile(read_us, 0.99), "us");
  report.Figure("reads", static_cast<double>(reads.load()), "count");
  report.Figure("tenant_nodes_end_mean",
                static_cast<double>(nodes_end) / static_cast<double>(kDocs), "count");
  report.Figure("submit_p50_us", Median(submit_us), "us");
  report.Figure("churn_register_p50_us", Median(register_us), "us");
  report.Figure("register_samples", static_cast<double>(register_us.size()), "count");

  report.Layer("doc_build_ms", doc_build_ms, "ms");
  report.Layer("compile_ms", compile_ms, "ms");
  report.Layer("pipeline_build_ms", pipeline_build_ms, "ms");
  report.Layer("term_edit_us", Median(term_edit_us), "us");
  report.Layer("pin_ns", Median(reader_pin_ns), "ns");
  report.Layer("submit_ns", Median(submit_ns), "ns");
  report.Layer("commands_per_commit",
               st.commits ? static_cast<double>(st.edits_applied + st.structural_applied) /
                                static_cast<double>(st.commits)
                          : 0,
               "count");
  report.Layer("steals", static_cast<double>(st.steals), "count");
  report.Layer("generator_lag_p99_us", Quantile(lag_us, 0.99), "us");
}

}  // namespace treebench
