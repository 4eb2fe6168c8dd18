//===- server/GroupCommit.h - Batched durable commit ------------*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The group-commit queue between the server's connection threads and
/// the concurrent relation: mutations are submitted as transact
/// batches with a completion callback, a single committer thread
/// drains the queue in FIFO order, folds *compatible* neighbors into
/// one commit group, applies the whole group under ONE stripe
/// acquisition (ConcurrentRelation::withTxLocks + transactPreLocked),
/// makes the group durable with ONE Wal::sync(), and only then runs
/// the completion callbacks — so an acknowledgement always implies the
/// transaction is on disk, and the fsync cost is amortized over the
/// group.
///
/// Folding is a lock-footprint policy, not a correctness condition:
/// any FIFO prefix applied sequentially under the union of its stripes
/// is serializable — the applications *are* a serial order, and the
/// tickets drawn inside agree with it. So a group grows from its head
/// transaction by merging each next queued transaction's lock plan
/// into the group's stripe union, whether the plan is a subset of the
/// union, disjoint from it, or overlaps it in part. Only three things
/// end a group (FIFO is never reordered): a fan-out (all-stripes) plan
/// meeting a routed group, a barrier, and the MaxGroup cap. The wider
/// footprint costs concurrent readers of the extra stripes a short
/// fallback to the stripe lock; in exchange a whole pipelined window
/// of transfers between random accounts, which almost always overlap
/// in part, commits under one stripe acquisition and one fsync.
///
/// After each group's completion callbacks the committer runs the
/// group-end step (onGroupEnd), which the server uses to send each
/// connection's batched replies with one write.
///
/// pause()/resume() freeze the committer so tests can pile up a queue
/// and observe a multi-transaction group deterministically; barrier()
/// runs a callback on the committer thread after everything enqueued
/// before it has committed (the checkpoint hook).
///
//===----------------------------------------------------------------------===//

#ifndef RELC_SERVER_GROUPCOMMIT_H
#define RELC_SERVER_GROUPCOMMIT_H

#include "concurrent/ConcurrentRelation.h"
#include "server/Wal.h"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace relc {

struct GroupCommitStats {
  uint64_t Submitted = 0;
  uint64_t Committed = 0;
  uint64_t Aborted = 0;
  /// Commit groups applied (each = one stripe acquisition).
  uint64_t Groups = 0;
  /// Groups that folded more than one transaction.
  uint64_t MultiTxGroups = 0;
  uint64_t MaxGroupSize = 0;
  /// Wal::sync calls (== groups with at least one commit, when a Wal
  /// is attached).
  uint64_t Syncs = 0;
  uint64_t SyncFailures = 0;
};

class GroupCommit {
public:
  /// Completion callback: the transact outcome plus whether the commit
  /// is durable (synced — always true for aborts and for servers
  /// running without a Wal). Runs on the committer thread; must not
  /// submit() synchronously-waiting work.
  using DoneFn = std::function<void(const TxResult &, bool Durable)>;

  struct Options {
    /// Max transactions folded into one group.
    size_t MaxGroup = 64;
  };

  /// \p Log may be null (volatile server: no append, no sync, Durable
  /// always true). The caller owns both and keeps them alive across
  /// stop(). The Wal hookup (ConcurrentRelation::setCommitHook →
  /// Wal::append) is the caller's: this class only paces the syncs.
  GroupCommit(ConcurrentRelation &Rel, Wal *Log, Options Opts);
  GroupCommit(ConcurrentRelation &Rel, Wal *Log)
      : GroupCommit(Rel, Log, Options()) {}
  ~GroupCommit();

  GroupCommit(const GroupCommit &) = delete;
  GroupCommit &operator=(const GroupCommit &) = delete;

  /// Spawns the committer thread. Call once, before the first submit.
  void start();

  /// Drains everything already submitted, then joins the committer.
  /// Idempotent.
  void stop();

  /// Enqueues one transact batch; \p Done fires after the group
  /// containing it has been applied and synced. The lock plan is
  /// computed here, on the submitting thread.
  void submit(std::vector<TxOp> Ops, DoneFn Done);

  /// Runs \p Fn on the committer thread after every earlier submission
  /// has committed and synced; later submissions wait behind it.
  /// Asynchronous — safe to call from a DoneFn.
  void barrier(std::function<void()> Fn);

  /// Installs the step the committer runs after every group's
  /// completion callbacks (the server flushes batched replies there).
  /// Call before start().
  void onGroupEnd(std::function<void()> Fn);

  /// Test support: freeze/unfreeze the committer (submissions queue up
  /// while paused, so resume() demonstrably forms multi-tx groups).
  void pause();
  void resume();

  GroupCommitStats stats() const;

private:
  struct Item {
    std::vector<TxOp> Ops;
    DoneFn Done;
    ConcurrentRelation::TxLockPlan Plan;
    std::function<void()> BarrierFn; // set => barrier item
  };

  void run();

  ConcurrentRelation &Rel;
  Wal *Log;
  Options Opts;
  /// Every stripe index, for fan-out scopes.
  std::vector<unsigned> AllStripes;
  std::function<void()> GroupEnd;

  mutable std::mutex Mu;
  std::condition_variable Cv;
  std::deque<Item> Queue;
  bool Paused = false;
  bool Stopping = false;
  bool Started = false;
  GroupCommitStats Stats;
  std::thread Committer;
};

} // namespace relc

#endif // RELC_SERVER_GROUPCOMMIT_H
