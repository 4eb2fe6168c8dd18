//===- tests/concurrent/EpochTest.cpp - Epoch reclamation tests -*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The epoch-based read-side protection of concurrent/Epoch.h: section
/// nesting, the writer fence's tag-selective drain, the central
/// reclamation guarantee (retired memory is freed only after every
/// overlapping read-side section has exited), deferred reclamation
/// through InstanceGraph, and a readers-vs-writers churn stress over
/// the wait-free ConcurrentRelation read path. The whole suite runs
/// under ThreadSanitizer in CI (the `concurrent.` job regex).
///
//===----------------------------------------------------------------------===//

#include "concurrent/Epoch.h"

#include "concurrent/ConcurrentRelation.h"
#include "decomp/Builder.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

using namespace relc;

namespace {

void spinUntil(const std::atomic<int> &Flag, int Want) {
  while (Flag.load(std::memory_order_acquire) != Want)
    std::this_thread::yield();
}

TEST(EpochTest, SectionsNestAndUnwind) {
  EpochManager &M = EpochManager::global();
  EXPECT_FALSE(M.inSection());
  {
    EpochGuard Outer;
    EXPECT_TRUE(M.inSection());
    {
      EpochGuard Inner;
      EXPECT_TRUE(M.inSection());
    }
    EXPECT_TRUE(M.inSection());
  }
  EXPECT_FALSE(M.inSection());
}

TEST(EpochTest, ParticipantSlotsAreClaimed) {
  EpochManager &M = EpochManager::global();
  { EpochGuard G; }
  size_t After = M.participantHighWater();
  EXPECT_GE(After, 1u);
  // A second thread claims (or reuses) a slot without growing the
  // table past one slot per concurrently-live thread.
  std::thread T([&] { EpochGuard G; });
  T.join();
  EXPECT_GE(M.participantHighWater(), After);
  EXPECT_LE(M.participantHighWater(), After + 1);
}

/// The reclamation contract: an object retired while some thread is
/// inside a read-side section is NOT destroyed — however hard the
/// manager tries — until that section exits.
TEST(EpochTest, RetiredDestroyedOnlyAfterGuardsDrop) {
  EpochManager &M = EpochManager::global();
  M.flush(); // start from a clean retire state
  ASSERT_EQ(M.pendingRetired(), 0u);

  std::atomic<int> Destroyed{0};
  struct Obj {
    std::atomic<int> *Counter;
    ~Obj() { Counter->fetch_add(1, std::memory_order_relaxed); }
  };

  std::atomic<int> Stage{0};
  std::thread Reader([&] {
    EpochGuard G; // wildcard: overlaps any retire
    Stage.store(1, std::memory_order_release);
    spinUntil(Stage, 2);
  });
  spinUntil(Stage, 1);

  M.retireObject(new Obj{&Destroyed});
  EXPECT_GE(M.pendingRetired(), 1u);
  // flush() advances and reclaims as far as the active section allows:
  // with the reader pinned at the retire epoch, that is not at all.
  M.flush();
  EXPECT_EQ(Destroyed.load(), 0);

  Stage.store(2, std::memory_order_release);
  Reader.join();
  M.flush();
  EXPECT_EQ(Destroyed.load(), 1);
  EXPECT_EQ(M.pendingRetired(), 0u);
}

/// A writer fence over gate G waits for sections tagged &G (and for
/// wildcard sections), and ignores sections on unrelated gates.
TEST(EpochTest, FenceWaitsForMatchingTagOnly) {
  EpochManager &M = EpochManager::global();
  EpochGate Mine, Other;

  std::atomic<int> Stage{0};
  std::thread Reader([&] {
    M.enter(&Mine);
    Stage.store(1, std::memory_order_release);
    spinUntil(Stage, 2);
    M.exit();
  });
  spinUntil(Stage, 1);

  // Unrelated gate: completes immediately even though a section on
  // &Mine is live.
  {
    EpochWriterFence F(Other);
    EXPECT_TRUE(Other.writerActive());
  }
  EXPECT_FALSE(Other.writerActive());

  // Matching gate: must not complete until the reader exits.
  std::atomic<bool> FenceDone{false};
  std::thread Writer([&] {
    EpochWriterFence F(Mine);
    FenceDone.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(FenceDone.load(std::memory_order_acquire));
  EXPECT_TRUE(Mine.writerActive());

  Stage.store(2, std::memory_order_release);
  Reader.join();
  Writer.join();
  EXPECT_TRUE(FenceDone.load());
  EXPECT_FALSE(Mine.writerActive());
}

TEST(EpochTest, FenceWaitsForWildcardSection) {
  EpochManager &M = EpochManager::global();
  EpochGate G;

  std::atomic<int> Stage{0};
  std::thread Reader([&] {
    M.enter(nullptr); // wildcard
    Stage.store(1, std::memory_order_release);
    spinUntil(Stage, 2);
    M.exit();
  });
  spinUntil(Stage, 1);

  std::atomic<bool> FenceDone{false};
  std::thread Writer([&] {
    EpochWriterFence F(G);
    FenceDone.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(FenceDone.load(std::memory_order_acquire));

  Stage.store(2, std::memory_order_release);
  Reader.join();
  Writer.join();
  EXPECT_TRUE(FenceDone.load());
}

/// A fence over more gates than one 64-tag wait chunk raises every
/// gate and waits for a section on a gate in a later chunk, then
/// lowers them all.
TEST(EpochTest, FenceOverManyGatesWaitsForEveryChunk) {
  EpochManager &M = EpochManager::global();
  const unsigned N = 4096;
  std::unique_ptr<EpochGate[]> Gates(new EpochGate[N]);
  std::vector<unsigned> Idx(N);
  for (unsigned I = 0; I != N; ++I)
    Idx[I] = I;
  const unsigned Late = 4000; // in the 63rd chunk

  std::atomic<int> Stage{0};
  std::thread Reader([&] {
    M.enter(&Gates[Late]);
    Stage.store(1, std::memory_order_release);
    spinUntil(Stage, 2);
    M.exit();
  });
  spinUntil(Stage, 1);

  std::atomic<bool> FenceDone{false};
  std::atomic<bool> AllRaised{false};
  std::thread Writer([&] {
    EpochWriterFence F(Gates.get(), Idx.data(), N);
    bool Raised = true;
    for (unsigned I = 0; I != N; ++I)
      Raised &= Gates[I].writerActive();
    AllRaised.store(Raised);
    FenceDone.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(FenceDone.load(std::memory_order_acquire));
  EXPECT_TRUE(Gates[0].writerActive());
  EXPECT_TRUE(Gates[N - 1].writerActive());

  Stage.store(2, std::memory_order_release);
  Reader.join();
  Writer.join();
  EXPECT_TRUE(FenceDone.load());
  EXPECT_TRUE(AllRaised.load());
  for (unsigned I = 0; I != N; ++I)
    ASSERT_FALSE(Gates[I].writerActive()) << "gate " << I << " left raised";
}

/// Nesting a section with a different tag widens the slot to the
/// wildcard: a fence over the INNER gate must now wait too.
TEST(EpochTest, MismatchedNestingWidensToWildcard) {
  EpochManager &M = EpochManager::global();
  EpochGate A, B;

  std::atomic<int> Stage{0};
  std::thread Reader([&] {
    M.enter(&A);
    M.enter(&B); // widens the slot's tag to wildcard
    Stage.store(1, std::memory_order_release);
    spinUntil(Stage, 2);
    M.exit();
    M.exit();
  });
  spinUntil(Stage, 1);

  std::atomic<bool> FenceDone{false};
  std::thread Writer([&] {
    EpochWriterFence F(B);
    FenceDone.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(FenceDone.load(std::memory_order_acquire));

  Stage.store(2, std::memory_order_release);
  Reader.join();
  Writer.join();
  EXPECT_TRUE(FenceDone.load());
}

//===----------------------------------------------------------------------===//
// Deferred reclamation through InstanceGraph / the relation stack.
//===----------------------------------------------------------------------===//

RelSpecRef schedulerSpec() {
  return RelSpec::make("scheduler", {"ns", "pid", "state", "cpu"},
                       {{"ns, pid", "state, cpu"}});
}

Decomposition fig2(const RelSpecRef &Spec) {
  DecompBuilder B(Spec);
  NodeId W = B.addNode("w", "ns, pid, state", B.unit("cpu"));
  NodeId Y = B.addNode("y", "ns", B.map("pid", DsKind::HashTable, W));
  NodeId Z = B.addNode("z", "state", B.map("ns, pid", DsKind::DList, W));
  B.addNode("x", "", B.join(B.map("ns", DsKind::HashTable, Y),
                            B.map("state", DsKind::Vector, Z)));
  return B.build();
}

Tuple proc(const Catalog &Cat, int64_t Ns, int64_t Pid, int64_t State,
           int64_t Cpu) {
  return TupleBuilder(Cat)
      .set("ns", Ns)
      .set("pid", Pid)
      .set("state", State)
      .set("cpu", Cpu)
      .build();
}

/// Node memory freed by a ConcurrentRelation mutation is parked on the
/// retire list while a reader section is live, and reclaimed after.
TEST(EpochTest, RelationNodesRetireUnderLiveSection) {
  EpochManager &M = EpochManager::global();
  M.flush();
  ASSERT_EQ(M.pendingRetired(), 0u);

  RelSpecRef Spec = schedulerSpec();
  const Catalog &Cat = Spec->catalog();
  ConcurrentRelation Rel(fig2(Spec), {4, std::nullopt});
  for (int64_t I = 0; I != 64; ++I)
    ASSERT_TRUE(Rel.insert(proc(Cat, I % 8, I, I % 3, 0)));

  // The reader's section is tagged with an UNRELATED gate: the
  // relation's writer fences ignore it (tag mismatch), so the removes
  // below complete — but epoch advance is tag-blind, so the section
  // still pins every retired node. (A wildcard guard here would
  // instead block the fences themselves: that is the guard-discipline
  // rule of Epoch.h, exercised by FenceWaitsForWildcardSection.)
  EpochGate Unrelated;
  std::atomic<int> Stage{0};
  std::thread Reader([&] {
    EpochGuard G(&Unrelated);
    Stage.store(1, std::memory_order_release);
    spinUntil(Stage, 2);
  });
  spinUntil(Stage, 1);

  for (int64_t I = 0; I != 64; ++I)
    Rel.remove(TupleBuilder(Cat).set("ns", I % 8).set("pid", I).build());
  EXPECT_TRUE(Rel.empty());
  // The unlinked NodeInstances were destructed eagerly (liveInstances
  // already reflects the removes) but their memory is parked.
  EXPECT_GT(M.pendingRetired(), 0u);
  M.flush();
  EXPECT_GT(M.pendingRetired(), 0u); // still pinned by the reader

  Stage.store(2, std::memory_order_release);
  Reader.join();
  M.flush();
  EXPECT_EQ(M.pendingRetired(), 0u);
}

//===----------------------------------------------------------------------===//
// Readers-vs-writers churn over the wait-free read path. TSan-clean by
// construction of the Dekker handshake; this is the test that proves
// it.
//===----------------------------------------------------------------------===//

TEST(EpochTest, SnapshotReadersSurviveWriterChurn) {
  RelSpecRef Spec = schedulerSpec();
  const Catalog &Cat = Spec->catalog();
  ConcurrentRelation Rel(fig2(Spec), {4, std::nullopt});
  for (int64_t I = 0; I != 32; ++I)
    ASSERT_TRUE(Rel.insert(proc(Cat, I % 8, I, I % 3, 0)));

  constexpr int NumReaders = 3;
  constexpr int WriterRounds = 400;
  std::atomic<bool> Stop{false};
  std::atomic<size_t> RowsSeen{0};

  std::vector<std::thread> Readers;
  for (int R = 0; R != NumReaders; ++R) {
    Readers.emplace_back([&, R] {
      ColumnSet Out = Cat.parseSet("ns, pid, state, cpu");
      while (!Stop.load(std::memory_order_acquire)) {
        // Routed point read, fan-out scan, and whole-relation
        // snapshot, round-robin — all three read-path shapes.
        if (R == 0) {
          Tuple P = TupleBuilder(Cat).set("ns", 3).build();
          Rel.scanFrames(P, Out, [&](const BindingFrame &) {
            RowsSeen.fetch_add(1, std::memory_order_relaxed);
            return true;
          });
        } else if (R == 1) {
          Rel.scanFrames(Tuple(), Out, [&](const BindingFrame &) {
            RowsSeen.fetch_add(1, std::memory_order_relaxed);
            return true;
          });
        } else {
          Relation Snap = Rel.toRelation();
          RowsSeen.fetch_add(Snap.size(), std::memory_order_relaxed);
          // Size conservation: writers move tuples between states but
          // the churn loop below keeps the population at 32.
          EXPECT_LE(Snap.size(), 33u);
        }
      }
    });
  }

  std::thread Writer([&] {
    for (int Round = 0; Round != WriterRounds; ++Round) {
      int64_t I = Round % 32;
      Tuple Key =
          TupleBuilder(Cat).set("ns", I % 8).set("pid", I).build();
      switch (Round % 3) {
      case 0:
        Rel.update(Key,
                   TupleBuilder(Cat).set("state", Round % 5).build());
        break;
      case 1:
        Rel.remove(Key);
        ASSERT_TRUE(Rel.insert(proc(Cat, I % 8, I, Round % 3, 1)));
        break;
      default:
        Rel.upsert(Key, [&](const BindingFrame *, Tuple &V) {
          V = TupleBuilder(Cat)
                  .set("state", Round % 7)
                  .set("cpu", Round % 2)
                  .build();
        });
        break;
      }
    }
    Stop.store(true, std::memory_order_release);
  });

  Writer.join();
  for (std::thread &T : Readers)
    T.join();
  EXPECT_GT(RowsSeen.load(), 0u);
  EXPECT_EQ(Rel.size(), 32u);
  EXPECT_EQ(Rel.toRelation().size(), 32u);
  EpochManager::global().flush();
}

} // namespace
