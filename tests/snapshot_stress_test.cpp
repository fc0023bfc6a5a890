// Concurrency stress for the copy-on-write snapshot layer: one writer
// thread streams batched edits while reader threads pin snapshots and
// enumerate, checking every answer set against per-version oracles
// precomputed by replaying the same edit script single-threaded. Run
// under TSan in CI (the debug-tsan job) — the interesting assertions here
// are the ones the sanitizer makes, not just the EXPECTs.
//
// Version bookkeeping: the document constructor publishes epoch 0 and
// each batch commit publishes the next epoch, so a pinned snapshot's
// epoch() indexes the expected-answers table directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "automata/query_library.h"
#include "automata/regex_spanner.h"
#include "baseline/static_engine.h"
#include "core/document.h"
#include "core/word_enumerator.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace treenum {
namespace {

constexpr int kReaders = 4;
constexpr size_t kMinIterations = 10;  // per reader before the writer stops

Wva SomeBPosition() {
  // a*<x:b>(a|b)* — select every b position.
  Wva a(2, 2, 1);
  a.AddInitial(0);
  a.AddTransition(0, 0, 0, 0);
  a.AddTransition(0, 1, 0, 0);
  a.AddTransition(0, 1, 1, 1);
  a.AddTransition(1, 0, 0, 1);
  a.AddTransition(1, 1, 0, 1);
  a.AddFinal(1);
  return a;
}

// Readers loop {pin, enumerate, compare against expected[epoch]} until the
// writer signals done; mismatches are counted (not EXPECTed — gtest
// assertions are not thread-safe) and reported after the join. Reader 0
// additionally re-verifies a version-0 pin every iteration (time travel
// under write pressure).
struct ReaderState {
  std::atomic<bool> done{false};
  std::atomic<size_t> iterations{0};
  std::atomic<size_t> mismatches{0};
};

TEST(SnapshotStress, TreeReadersRaceBatchedWriter) {
  Rng rng(201);
  UnrankedTree tree = RandomTree(40, 3, rng);
  const UnrankedTva q1 = QuerySelectLabel(3, 1);
  const UnrankedTva q2 = QueryMarkedAncestor(3, 1, 2);

  // Precompute the edit script and the per-version answer tables.
  constexpr int kBatches = 60;
  constexpr int kBatchSize = 4;
  ScriptedEditor script(tree, 3001, 3);
  std::vector<std::vector<Edit>> batches;
  std::vector<std::vector<Assignment>> expected1, expected2;
  {
    StaticEngine oracle1(tree, q1), oracle2(tree, q2);
    expected1.push_back(oracle1.EnumerateAll());
    expected2.push_back(oracle2.EnumerateAll());
    for (int j = 0; j < kBatches; ++j) {
      std::vector<Edit> batch;
      for (int i = 0; i < kBatchSize; ++i) batch.push_back(script.NextEdit());
      oracle1.ApplyEdits(batch);
      oracle2.ApplyEdits(batch);
      expected1.push_back(oracle1.EnumerateAll());
      expected2.push_back(oracle2.EnumerateAll());
      batches.push_back(std::move(batch));
    }
  }

  DynamicDocument doc(tree, 3);
  ThreadPool pool(2);  // refresh fan-out races the readers too
  doc.set_pool(&pool);
  DynamicDocument::QueryHandle h1 = doc.Register(q1);
  DynamicDocument::QueryHandle h2 = doc.Register(q2);

  ReaderState state;
  SnapshotRef genesis = doc.CurrentSnapshot();
  ASSERT_EQ(genesis.epoch(), 0u);

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      SnapshotRef time_travel = r == 0 ? genesis : SnapshotRef();
      while (!state.done.load(std::memory_order_acquire)) {
        SnapshotRef snap = doc.CurrentSnapshot();
        const size_t v = static_cast<size_t>(snap.epoch());
        if (doc.EnumerateAt(snap, h1) != expected1[v] ||
            doc.EnumerateAt(snap, h2) != expected2[v] ||
            doc.HasAnswerAt(snap, h1) != !expected1[v].empty()) {
          state.mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        if (time_travel && doc.EnumerateAt(time_travel, h1) != expected1[0]) {
          state.mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        state.iterations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Writer (this thread): pace the batches against reader progress so the
  // interleaving is real under any scheduler, then keep readers spinning
  // until each has done a minimum amount of verified work.
  for (int j = 0; j < kBatches; ++j) {
    while (state.iterations.load(std::memory_order_relaxed) <
           static_cast<size_t>(j) / 2) {
      std::this_thread::yield();
    }
    doc.ApplyEdits(batches[j]);
  }
  while (state.iterations.load(std::memory_order_relaxed) <
         kMinIterations * kReaders) {
    std::this_thread::yield();
  }
  state.done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(state.mismatches.load(), 0u);
  EXPECT_GE(state.iterations.load(), kMinIterations * kReaders);
  // The writer-side view stayed coherent too.
  EXPECT_EQ(doc.EnumerateAt(doc.CurrentSnapshot(), h1), expected1[kBatches]);
  EXPECT_EQ(doc.EnumerateAt(genesis, h1), expected1[0]);
  EXPECT_EQ(doc.snapshots_published(), static_cast<uint64_t>(kBatches) + 1);
}

// Registration races readers: the writer builds new pipelines (each freeing
// the buffers its build retired before the pipeline is published) and
// edits the document, while reader threads drain cursors over pinned
// snapshots of a query registered beforehand, through a ReaderView — the
// surface that stays valid while the registry tables change. TSan and
// ASan check that the release path touches nothing a reader can see.
TEST(SnapshotStress, RegistrationsRaceSnapshotDrains) {
  Rng rng(223);
  UnrankedTree tree = RandomTree(60, 3, rng);
  const UnrankedTva base = QueryMarkedAncestor(3, 1, 2);
  std::vector<UnrankedTva> fresh;
  for (Label a = 0; a < 3; ++a) {
    fresh.push_back(QuerySelectLabel(3, a));
    for (Label b = 0; b < 3; ++b) {
      if (a != b) fresh.push_back(QueryDescendantPairs(3, a, b));
    }
  }

  // One edit batch per registration; expected base answers per version.
  ScriptedEditor script(tree, 227, 3);
  std::vector<std::vector<Edit>> batches;
  std::vector<std::vector<Assignment>> expected;
  std::vector<UnrankedTree> versions;
  {
    StaticEngine oracle(tree, base);
    expected.push_back(oracle.EnumerateAll());
    versions.push_back(oracle.tree());
    for (size_t j = 0; j < fresh.size(); ++j) {
      std::vector<Edit> batch;
      for (int i = 0; i < 3; ++i) batch.push_back(script.NextEdit());
      oracle.ApplyEdits(batch);
      expected.push_back(oracle.EnumerateAll());
      versions.push_back(oracle.tree());
      batches.push_back(std::move(batch));
    }
  }

  DynamicDocument doc(tree, 3);
  const DynamicDocument::QueryHandle h = doc.Register(base);
  const DynamicDocument::ReaderView view = doc.reader_view(h);

  ReaderState state;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!state.done.load(std::memory_order_acquire)) {
        SnapshotRef snap = doc.CurrentSnapshot();
        const size_t v = static_cast<size_t>(snap.epoch());
        std::unique_ptr<Engine::Cursor> cursor = view.MakeCursorAt(snap);
        std::vector<Assignment> got;
        Assignment a;
        while (cursor->Next(&a)) got.push_back(a);
        std::sort(got.begin(), got.end());
        if (got != expected[v]) {
          state.mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        state.iterations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  size_t fresh_mismatches = 0;
  for (size_t j = 0; j < fresh.size(); ++j) {
    while (state.iterations.load(std::memory_order_relaxed) < j / 2) {
      std::this_thread::yield();
    }
    const DynamicDocument::QueryHandle hj = doc.Register(fresh[j]);
    if (doc.pipeline(hj).StorageBytes().retired != 0 ||
        doc.EnumerateAt(doc.CurrentSnapshot(), hj) !=
            StaticEngine(versions[j], fresh[j]).EnumerateAll()) {
      ++fresh_mismatches;
    }
    doc.ApplyEdits(batches[j]);
    doc.Unregister(hj);
  }
  while (state.iterations.load(std::memory_order_relaxed) <
         kMinIterations * kReaders) {
    std::this_thread::yield();
  }
  state.done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(fresh_mismatches, 0u);
  EXPECT_EQ(state.mismatches.load(), 0u);
  EXPECT_EQ(doc.EnumerateAt(doc.CurrentSnapshot(), h), expected.back());
}

TEST(SnapshotStress, WordReadersRaceBatchedWriter) {
  const Word w = ToWord("abababababab");
  const Wva q = SomeBPosition();

  // Replace-only script (positions stay stable), precomputed per version
  // by replaying a second enumerator.
  constexpr int kBatches = 40;
  constexpr int kBatchSize = 3;
  Rng rng(211);
  std::vector<std::vector<std::pair<size_t, Label>>> batches;
  std::vector<std::vector<Assignment>> expected;
  {
    WordEnumerator replay(w, q);
    expected.push_back(replay.EnumerateAll());
    for (int j = 0; j < kBatches; ++j) {
      std::vector<std::pair<size_t, Label>> batch;
      for (int i = 0; i < kBatchSize; ++i) {
        batch.emplace_back(rng.Index(w.size()),
                           static_cast<Label>(rng.Index(2)));
      }
      replay.BeginBatch();
      for (const auto& e : batch) replay.Replace(e.first, e.second);
      replay.CommitBatch();
      expected.push_back(replay.EnumerateAll());
      batches.push_back(std::move(batch));
    }
  }

  WordEnumerator e(w, q);
  ReaderState state;
  SnapshotRef genesis = e.CurrentSnapshot();

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      SnapshotRef time_travel = r == 0 ? genesis : SnapshotRef();
      while (!state.done.load(std::memory_order_acquire)) {
        SnapshotRef snap = e.CurrentSnapshot();
        const size_t v = static_cast<size_t>(snap.epoch());
        if (e.EnumerateAt(snap) != expected[v]) {
          state.mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        if (time_travel && e.EnumerateAt(time_travel) != expected[0]) {
          state.mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        state.iterations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int j = 0; j < kBatches; ++j) {
    while (state.iterations.load(std::memory_order_relaxed) <
           static_cast<size_t>(j) / 2) {
      std::this_thread::yield();
    }
    e.BeginBatch();
    for (const auto& ed : batches[j]) e.Replace(ed.first, ed.second);
    e.CommitBatch();
  }
  while (state.iterations.load(std::memory_order_relaxed) <
         kMinIterations * kReaders) {
    std::this_thread::yield();
  }
  state.done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(state.mismatches.load(), 0u);
  EXPECT_EQ(e.EnumerateAt(e.CurrentSnapshot()), expected[kBatches]);
  EXPECT_EQ(e.EnumerateAt(genesis), expected[0]);
}

}  // namespace
}  // namespace treenum
