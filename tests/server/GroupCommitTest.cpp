//===- tests/server/GroupCommitTest.cpp - Group commit tests --------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
//
// The group-commit queue under contention (run under TSan in CI):
// deterministic folding via pause()/resume() — a paused committer
// accumulates compatible transactions and must apply them as ONE group
// under one stripe acquisition and one sync — plus the satellite's
// contended-transfer workload: N threads hammering 2-key transfers
// over a small account pool, asserting total-balance conservation,
// a nonzero abort count (the overdraft guard firing), and group sizes
// greater than one.
//
//===----------------------------------------------------------------------===//

#include "server/Client.h"
#include "server/GroupCommit.h"
#include "server/Server.h"

#include "decomp/Builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <mutex>
#include <thread>
#include <unistd.h>

using namespace relc;

namespace {

RelSpecRef accountSpec() {
  return RelSpec::make("account", {"owner", "acct", "balance"},
                       {{"owner, acct", "balance"}});
}

Decomposition accountDecomp(const RelSpecRef &Spec) {
  DecompBuilder B(Spec);
  NodeId U = B.addNode("u", "owner, acct", B.unit("balance"));
  NodeId Y = B.addNode("y", "owner", B.map("acct", DsKind::HashTable, U));
  B.addNode("x", "", B.map("owner", DsKind::HashTable, Y));
  return B.build();
}

Tuple key(const Catalog &Cat, int64_t Owner, int64_t Acct) {
  return TupleBuilder(Cat).set("owner", Owner).set("acct", Acct).build();
}

/// The interpreted mirror of the wire `add` op: floor-guarded
/// balance arithmetic that aborts on absent keys and overdrafts.
TxOp addOp(const Catalog &Cat, int64_t Owner, int64_t Acct, int64_t Delta,
           int64_t Floor) {
  ColumnId Bal = Cat.get("balance");
  return TxOp::upsertChecked(
      key(Cat, Owner, Acct),
      [Bal, Delta, Floor](const BindingFrame *F, Tuple &V) {
        if (!F)
          return false;
        int64_t Next = F->get(Bal).asInt() + Delta;
        if (Next < Floor)
          return false;
        V.set(Bal, Value::ofInt(Next));
        return true;
      });
}

std::vector<TxOp> transfer(const Catalog &Cat, int64_t From, int64_t To,
                           int64_t Amt) {
  std::vector<TxOp> Ops;
  Ops.push_back(addOp(Cat, From / 4, From % 4, -Amt, 0));
  Ops.push_back(addOp(Cat, To / 4, To % 4, Amt, INT64_MIN));
  return Ops;
}

/// Counts completions and lets a test wait for the N-th one.
struct DoneLatch {
  std::mutex Mu;
  std::condition_variable Cv;
  size_t Done = 0;
  size_t Committed = 0;
  size_t Aborted = 0;
  size_t NotDurable = 0;

  GroupCommit::DoneFn fn() {
    return [this](const TxResult &R, bool Durable) {
      std::lock_guard<std::mutex> Lock(Mu);
      ++Done;
      if (R.Committed)
        ++Committed;
      else
        ++Aborted;
      if (R.Committed && !Durable)
        ++NotDurable;
      Cv.notify_all();
    };
  }
  void waitFor(size_t N) {
    std::unique_lock<std::mutex> Lock(Mu);
    Cv.wait(Lock, [&] { return Done >= N; });
  }
};

class GroupCommitFixture : public ::testing::Test {
protected:
  GroupCommitFixture()
      : Spec(accountSpec()), Cat(Spec->catalog()),
        Rel(accountDecomp(Spec), shardOpts()) {}

  static ConcurrentOptions shardOpts() {
    ConcurrentOptions O;
    O.NumShards = 4;
    return O;
  }

  void seed(int64_t Accounts, int64_t Balance) {
    for (int64_t A = 0; A != Accounts; ++A)
      ASSERT_TRUE(Rel.insert(TupleBuilder(Cat)
                                 .set("owner", A / 4)
                                 .set("acct", A % 4)
                                 .set("balance", Balance)
                                 .build()));
  }

  int64_t totalBalance() {
    ColumnId Bal = Cat.get("balance");
    int64_t Total = 0;
    for (const Tuple &T : Rel.toRelation().tuples())
      Total += T.get(Bal).asInt();
    return Total;
  }

  RelSpecRef Spec;
  const Catalog &Cat;
  ConcurrentRelation Rel;
};

TEST_F(GroupCommitFixture, PausedSubmissionsFoldIntoOneGroup) {
  seed(8, 1000);
  GroupCommit GC(Rel, nullptr);
  GC.start();
  GC.pause();
  DoneLatch Latch;
  // Eight transfers over the same two owners: identical stripe sets,
  // all compatible, all queued while the committer sleeps.
  for (int I = 0; I != 8; ++I)
    GC.submit(transfer(Cat, 0, 4, 10), Latch.fn());
  GC.resume();
  Latch.waitFor(8);
  GC.stop();
  GroupCommitStats S = GC.stats();
  EXPECT_EQ(S.Submitted, 8u);
  EXPECT_EQ(S.Committed, 8u);
  EXPECT_EQ(S.Groups, 1u) << "all eight were queued: one group";
  EXPECT_EQ(S.MaxGroupSize, 8u);
  EXPECT_EQ(S.MultiTxGroups, 1u);
  EXPECT_EQ(totalBalance(), 8 * 1000);
}

/// A paused queue of A, then B overlapping A's stripes only in part,
/// then C folds into ONE group (the union footprint), and the group
/// applies them in FIFO order: B only commits after A funded it, and C
/// aborts on what A and B left. A serial replay agrees exactly.
TEST_F(GroupCommitFixture, PartialOverlapFoldsInFifoOrder) {
  seed(64, 1000);
  // Three owners on three different stripes: A = o1 -> o2 and
  // B = o2 -> o3 share only o2's stripe.
  auto stripeOf = [&](int64_t Owner) {
    std::vector<TxOp> Ops;
    Ops.push_back(addOp(Cat, Owner, 0, 0, 0));
    ConcurrentRelation::TxLockPlan P = Rel.transactLockPlan(Ops);
    EXPECT_EQ(P.Stripes.size(), 1u);
    return P.Stripes.front();
  };
  std::vector<int64_t> Owners;
  std::vector<unsigned> Used;
  for (int64_t O = 0; O != 16 && Owners.size() != 3; ++O) {
    unsigned S = stripeOf(O);
    if (std::find(Used.begin(), Used.end(), S) == Used.end()) {
      Owners.push_back(O);
      Used.push_back(S);
    }
  }
  ASSERT_EQ(Owners.size(), 3u) << "16 owners hashed onto < 3 of 4 stripes";
  int64_t O1 = 4 * Owners[0], O2 = 4 * Owners[1], O3 = 4 * Owners[2];
  std::vector<std::vector<TxOp>> Txns;
  Txns.push_back(transfer(Cat, O1, O2, 600));  // o2: 1600
  Txns.push_back(transfer(Cat, O2, O3, 1500)); // needs A first; o3: 2500
  Txns.push_back(transfer(Cat, O3, O1, 2600)); // overdraft: aborts
  ConcurrentRelation::TxLockPlan PA = Rel.transactLockPlan(Txns[0]);
  ConcurrentRelation::TxLockPlan PB = Rel.transactLockPlan(Txns[1]);
  ASSERT_FALSE(std::includes(PA.Stripes.begin(), PA.Stripes.end(),
                             PB.Stripes.begin(), PB.Stripes.end()));
  std::vector<unsigned> Shared;
  std::set_intersection(PA.Stripes.begin(), PA.Stripes.end(),
                        PB.Stripes.begin(), PB.Stripes.end(),
                        std::back_inserter(Shared));
  ASSERT_FALSE(Shared.empty()) << "B must overlap A, in part";

  // The serial replay: the same three batches, one at a time.
  ConcurrentRelation Serial(accountDecomp(Spec), shardOpts());
  for (const Tuple &T : Rel.toRelation().tuples())
    ASSERT_TRUE(Serial.insert(T));
  std::vector<TxResult> Expected;
  for (const std::vector<TxOp> &Ops : Txns)
    Expected.push_back(Serial.transact(Ops));
  ASSERT_TRUE(Expected[0].Committed);
  ASSERT_TRUE(Expected[1].Committed);
  ASSERT_FALSE(Expected[2].Committed);

  GroupCommit GC(Rel, nullptr);
  GC.start();
  GC.pause();
  std::mutex Mu;
  std::vector<TxResult> Got(Txns.size());
  DoneLatch Latch;
  for (size_t I = 0; I != Txns.size(); ++I)
    GC.submit(Txns[I], [&, I, Count = Latch.fn()](const TxResult &R,
                                                    bool Durable) {
      {
        std::lock_guard<std::mutex> Lock(Mu);
        Got[I] = R;
      }
      Count(R, Durable);
    });
  GC.resume();
  Latch.waitFor(Txns.size());
  GC.stop();

  GroupCommitStats S = GC.stats();
  EXPECT_EQ(S.Groups, 1u) << "a partial overlap must not end the group";
  EXPECT_EQ(S.MaxGroupSize, 3u);
  for (size_t I = 0; I != Txns.size(); ++I) {
    EXPECT_EQ(Got[I].Committed, Expected[I].Committed) << "txn " << I;
    EXPECT_EQ(Got[I].Ticket, Expected[I].Ticket) << "txn " << I;
    if (!Expected[I].Committed)
      EXPECT_EQ(Got[I].FailedOp, Expected[I].FailedOp) << "txn " << I;
  }
  Relation Want = Serial.toRelation(), Have = Rel.toRelation();
  EXPECT_EQ(Have.size(), Want.size());
  for (const Tuple &T : Want.tuples())
    EXPECT_TRUE(Have.contains(T));
}

TEST_F(GroupCommitFixture, BarrierRunsAfterEverythingBeforeIt) {
  seed(8, 1000);
  GroupCommit GC(Rel, nullptr);
  GC.start();
  GC.pause();
  DoneLatch Latch;
  for (int I = 0; I != 5; ++I)
    GC.submit(transfer(Cat, 0, 4, 1), Latch.fn());
  std::promise<size_t> SeenAtBarrier;
  GC.barrier([&] {
    std::lock_guard<std::mutex> Lock(Latch.Mu);
    SeenAtBarrier.set_value(Latch.Done);
  });
  GC.submit(transfer(Cat, 0, 4, 1), Latch.fn());
  GC.resume();
  EXPECT_EQ(SeenAtBarrier.get_future().get(), 5u)
      << "barrier must run after the five earlier txns, before the sixth";
  Latch.waitFor(6);
  GC.stop();
}

TEST_F(GroupCommitFixture, OneSyncPerGroup) {
  seed(8, 1000);
  std::string Dir = ::testing::TempDir();
  std::string Path = Dir + "/group_sync_wal_" +
                     std::to_string(::getpid()) + ".log";
  std::remove(Path.c_str());
  Wal Log(Path);
  std::string Err;
  ASSERT_TRUE(Log.open(&Err)) << Err;
  Rel.setCommitHook([&](uint64_t Ticket, const std::vector<TxOp> &Redo) {
    std::vector<uint8_t> P = wire::encodeRedo(Redo);
    Log.append(Ticket, P.data(), P.size());
  });
  GroupCommit GC(Rel, &Log);
  GC.start();
  GC.pause();
  DoneLatch Latch;
  for (int I = 0; I != 10; ++I)
    GC.submit(transfer(Cat, 0, 4, 1), Latch.fn());
  GC.resume();
  Latch.waitFor(10);
  GC.stop();
  GroupCommitStats S = GC.stats();
  EXPECT_EQ(S.Committed, 10u);
  EXPECT_EQ(S.Groups, 1u);
  EXPECT_EQ(S.Syncs, 1u) << "one fsync amortized over the whole group";
  EXPECT_EQ(Latch.NotDurable, 0u);
  Rel.setCommitHook(nullptr);
  std::remove(Path.c_str());
}

/// The satellite workload: contended 2-key transfers from N threads.
/// Conservation must hold exactly, some overdrafts must abort, and
/// the committer must demonstrably batch (a paused stretch guarantees
/// a multi-tx group even on a single-core runner).
TEST_F(GroupCommitFixture, ContendedTransfersConserveAndBatch) {
  const int64_t Accounts = 8; // small pool = real contention
  const int64_t Initial = 100;
  const int Threads = 4;
  const int PerThread = 150;
  seed(Accounts, Initial);

  GroupCommit GC(Rel, nullptr);
  GC.start();
  DoneLatch Latch;
  std::atomic<bool> PauseWindow{false};
  std::vector<std::thread> Workers;
  for (int W = 0; W != Threads; ++W)
    Workers.emplace_back([&, W] {
      uint64_t State = 0x9E3779B97F4A7C15ull * (W + 1) + 1;
      auto Rnd = [&State](uint64_t Mod) {
        State = State * 6364136223846793005ull + 1442695040888963407ull;
        return (State >> 33) % Mod;
      };
      for (int T = 0; T != PerThread; ++T) {
        int64_t From = static_cast<int64_t>(Rnd(Accounts));
        int64_t To = static_cast<int64_t>(Rnd(Accounts));
        if (From == To)
          To = (To + 1) % Accounts;
        // Amounts beyond one account's funds force floor aborts.
        int64_t Amt = 1 + static_cast<int64_t>(Rnd(2 * Initial));
        GC.submit(transfer(Cat, From, To, Amt), Latch.fn());
      }
    });
  // Mid-workload, freeze the committer briefly so submissions pile up:
  // the resume must fold them into multi-transaction groups.
  GC.pause();
  PauseWindow.store(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  GC.resume();
  for (std::thread &T : Workers)
    T.join();
  Latch.waitFor(static_cast<size_t>(Threads) * PerThread);
  GC.stop();

  GroupCommitStats S = GC.stats();
  EXPECT_EQ(S.Submitted, static_cast<uint64_t>(Threads) * PerThread);
  EXPECT_EQ(S.Committed + S.Aborted, S.Submitted);
  EXPECT_GT(S.Aborted, 0u) << "overdraft guard never fired";
  EXPECT_GT(S.Committed, 0u);
  EXPECT_GT(S.MaxGroupSize, 1u) << "no multi-transaction group formed";
  EXPECT_GT(S.MultiTxGroups, 0u);
  EXPECT_EQ(totalBalance(), Accounts * Initial)
      << "conservation violated by " << S.Committed << " commits";
}

/// Same invariant through the full server stack: pipelined wire
/// transacts from several client threads, group sizes observed via
/// the Stats opcode.
TEST(GroupCommitServer, PipelinedWireTransfersBatchAndConserve) {
  RelSpecRef Spec = accountSpec();
  const Catalog &Cat = Spec->catalog();
  ColumnId Bal = Cat.get("balance");
  ServerOptions Opts; // volatile: batching logic is WAL-independent
  Opts.Concurrent.NumShards = 4;
  RelServer Server(accountDecomp(Spec), Opts);
  std::string Err;
  ASSERT_TRUE(Server.start(&Err)) << Err;

  const int64_t Accounts = 8;
  {
    RelClient Cli;
    ASSERT_TRUE(Cli.connect(Server.port()));
    for (int64_t A = 0; A != Accounts; ++A) {
      RelClient::Reply R;
      ASSERT_TRUE(Cli.insert(TupleBuilder(Cat)
                                 .set("owner", A / 4)
                                 .set("acct", A % 4)
                                 .set("balance", 100)
                                 .build(),
                             &R));
      ASSERT_TRUE(R.ok());
    }
  }

  // Pause the committer and pipeline a burst: the conn thread submits
  // them all, so the resume has a queue to fold.
  Server.committer().pause();
  RelClient Cli;
  ASSERT_TRUE(Cli.connect(Server.port()));
  const int Burst = 16;
  for (int I = 0; I != Burst; ++I) {
    std::vector<wire::WireTxOp> Ops = {
        wire::WireTxOp::add(key(Cat, 0, 0), Bal, -1, 0),
        wire::WireTxOp::add(key(Cat, 1, 0), Bal, 1)};
    ASSERT_NE(Cli.sendTransact(Ops), 0u);
  }
  // sendTransact returns once the frame is in the socket buffer; the
  // conn thread still has to read and submit it. Resuming before the
  // whole burst is queued lets the committer drain 1-by-1 groups, so
  // wait for every submission (8 seed inserts + the burst) first.
  while (Server.commitStats().Submitted <
         static_cast<uint64_t>(Accounts + Burst))
    std::this_thread::yield();
  Server.committer().resume();
  int Acked = 0, Aborted = 0;
  for (int I = 0; I != Burst; ++I) {
    RelClient::Reply R;
    ASSERT_TRUE(Cli.recvReply(R));
    (R.ok() ? Acked : Aborted) += 1;
  }
  EXPECT_EQ(Acked + Aborted, Burst);

  RelClient::ServerStats S;
  ASSERT_TRUE(Cli.stats(S));
  EXPECT_GT(S.MaxGroupSize, 1u);

  std::vector<Tuple> Rows;
  ASSERT_TRUE(Cli.query(Tuple(), Cat.allColumns(), Rows));
  int64_t Total = 0;
  for (const Tuple &T : Rows)
    Total += T.get(Bal).asInt();
  EXPECT_EQ(Total, Accounts * 100);
  Server.stop();
}

} // namespace
