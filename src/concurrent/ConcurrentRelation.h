//===- concurrent/ConcurrentRelation.h - Sharded thread-safe facade -*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe facade over the synthesized relations of the paper:
/// the relation is hash-partitioned across N independent
/// SynthesizedRelation sub-instances by one shard column, with one
/// reader-writer lock per shard (StripedLock.h). Readers of any shards
/// run concurrently; writers serialize only within the shard they
/// touch. Operations whose pattern binds the shard column route to
/// exactly one shard; the rest fan out — reads shard-by-shard,
/// mutations atomically under all writer locks in ascending order
/// (docs/CONCURRENCY.md has the full design, lock order, and
/// visibility guarantees).
///
/// The read path is epoch-protected and wait-free in the common case
/// (concurrent/Epoch.h): a reader enters an epoch section tagged with
/// the shard's gate and, finding no writer active on that gate, scans
/// without touching the stripe lock at all — no shared read-modify-
/// write, so read throughput scales with cores. When a writer holds
/// the shard (its gate is raised for the duration of the mutation,
/// and the raising fence waits out in-flight reader sections), the
/// reader falls back to the shard's reader lock, which is exactly the
/// pre-epoch behavior. Writers are unchanged: exclusive stripe locks,
/// two-phase locking for transact, commit tickets.
///
/// Correctness: every full tuple is owned by exactly one shard (the
/// hash of its shard-column value), so the represented relation is the
/// disjoint union of the shard relations and every Section 2 operation
/// decomposes into per-shard operations on it. The one non-local case
/// is an update that rewrites the shard column itself, which migrates
/// the tuple between shards (remove + reinsert) under all writer
/// locks. The per-shard zero-allocation query invariants of the
/// sequential engine survive unchanged: scanFrames lends each shard's
/// stack frame to the callback exactly as the sequential engine does.
///
//===----------------------------------------------------------------------===//

#ifndef RELC_CONCURRENT_CONCURRENTRELATION_H
#define RELC_CONCURRENT_CONCURRENTRELATION_H

#include "concurrent/Epoch.h"
#include "concurrent/ShardRouter.h"
#include "concurrent/StripedLock.h"
#include "runtime/SynthesizedRelation.h"

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

namespace relc {

struct ConcurrentOptions {
  /// Number of sub-relations. More shards = more writer parallelism
  /// and more fan-out work for non-routed operations; powers of two
  /// around 2x the expected writer count work well.
  unsigned NumShards = 8;
  /// Column to partition by; defaults to the first column of the
  /// decomposition root's key (ShardRouter::defaultShardColumn).
  std::optional<ColumnId> ShardColumn;
  /// Slots in the bounded merge queue of parallel fan-out scans; the
  /// bound backpressures shard workers against a slow consumer.
  size_t ScanQueueCapacity = 1024;
};

class ConcurrentRelation {
public:
  /// Builds \p Opts.NumShards copies of the decomposition, one
  /// SynthesizedRelation per shard (each with concurrent reads
  /// enabled). \p D must be adequate, as for SynthesizedRelation.
  explicit ConcurrentRelation(const Decomposition &D,
                              ConcurrentOptions Opts = ConcurrentOptions());

  // Read the facade's own immutable copy of the decomposition, not
  // Shards.front(): shard pointers are COW-swapped by writers holding
  // only their own stripe, so an unlocked read of a shard slot races.
  const RelSpecRef &spec() const { return Proto.spec(); }
  const Catalog &catalog() const { return Proto.catalog(); }
  const Decomposition &decomp() const { return Proto; }

  unsigned numShards() const { return Router.numShards(); }
  ColumnId shardColumn() const { return Router.shardColumn(); }

  //===--------------------------------------------------------------------===
  // The relational interface (Section 2), thread-safe.
  //===--------------------------------------------------------------------===

  /// insert r t. Routes to the owning shard (full tuples always bind
  /// the shard column) under its writer lock.
  bool insert(const Tuple &T);

  /// remove r s. One shard if the pattern binds the shard column;
  /// otherwise all shards under all writer locks (atomic fan-out).
  size_t remove(const Tuple &Pattern);

  /// update r s u, with the sequential engine's preconditions (the
  /// pattern is a key, changes disjoint from it). If the changes
  /// rewrite the shard column the tuple migrates shards under all
  /// writer locks; otherwise the update stays inside one shard.
  size_t update(const Tuple &Pattern, const Tuple &Changes);

  /// Atomic read-modify-write (see SynthesizedRelation::upsert for the
  /// callback contract). When \p Key binds the shard column this takes
  /// exactly ONE shard writer lock — the whole point of the primitive:
  /// concurrent writers to different keys of one shard linearize their
  /// read-modify-write cycles without external ownership partitioning.
  /// Otherwise every writer lock is taken and, if the new values
  /// rewrite the shard column, the tuple migrates shards. \p Fn must
  /// not operate on this relation. \returns true if a tuple was newly
  /// inserted.
  bool upsert(const Tuple &Key,
              function_ref<void(const BindingFrame *, Tuple &)> Fn);

  /// transact: the batch \p Ops as one atomic, serializable unit under
  /// two-phase locking. The touched shard set is computed from the
  /// ops' shard-column bindings (transactLockPlan); when every op
  /// routes, exactly those stripes are acquired in ascending index
  /// order — a transfer between two routed keys locks two stripes,
  /// never all — and the batch degrades to all stripes only when some
  /// op cannot be confined to one shard (its pattern misses the shard
  /// column, it may rewrite the shard column, or an FD probe spans
  /// shards). All locks precede the first mutation and are released
  /// together after the last, so every execution is conflict-
  /// serializable; the returned Ticket orders conflicting commits.
  /// Aborts (FD conflict, upsert conditional abort) roll the touched
  /// shards back via inverse ops — all-or-nothing, exactly as the
  /// sequential SynthesizedRelation::transact.
  TxResult transact(const std::vector<TxOp> &Ops);

  /// As above, with the batch assembled by \p Build (see TxBatch).
  TxResult transact(function_ref<void(TxBatch &)> Build);

  /// One key's slice of a transactKeys batch: what the callback reads
  /// and writes.
  struct TxKeyView {
    /// In: did a tuple matching the key exist?
    bool Found = false;
    /// In: the existing tuple's non-key values (empty when !Found).
    /// Out: the values to write back. Leaving a Found view's values
    /// unchanged writes nothing for that key; an absent key must come
    /// back with every non-key column bound, or the batch aborts (the
    /// same conditional-abort convention as TxOp::upsert).
    Tuple Values;
  };

  /// The interpreted mirror of the generated facades' `transaction
  /// cols x N` form (relc `transactN_by_<key>` methods): an atomic
  /// read-modify-write over \p Keys, all bound over the same key
  /// columns (which must form a key of the relation). Under the same
  /// two-phase locking as transact — exactly the owning stripes,
  /// ascending, when the key columns route; every stripe otherwise —
  /// the current values of every key are read, \p Fn mutates the views
  /// (returning false aborts with nothing applied), and the write-back
  /// runs as one batch: updates for found keys whose values changed,
  /// inserts for absent keys. FD conflicts roll back all-or-nothing
  /// exactly as transact. On a callback abort the returned FailedOp is
  /// Keys.size(); on an FD abort it is the index of the offending
  /// write-back op.
  TxResult transactKeys(const std::vector<Tuple> &Keys,
                        function_ref<bool(std::vector<TxKeyView> &)> Fn);

  /// The stripes transact(\p Ops) would lock: either the exact
  /// ascending routed set, or every stripe (AllShards). Exposed so
  /// tests and capacity planning can see the lock footprint without
  /// running the batch.
  struct TxLockPlan {
    /// True when some op forces the all-stripes fan-out.
    bool AllShards = false;
    /// Ascending, deduplicated stripe indices when !AllShards.
    std::vector<unsigned> Stripes;
  };
  TxLockPlan transactLockPlan(const std::vector<TxOp> &Ops) const;

  //===--------------------------------------------------------------------===
  // Durability and group commit (src/server/).
  //===--------------------------------------------------------------------===

  /// Ticket-ordered commit hook for durability layers (the server's
  /// write-ahead log): called once per committed transact batch, at
  /// the linearization point — every touched stripe is still held —
  /// with the commit ticket and the batch's REDO ops. Redo ops are the
  /// concrete effects of the batch (upsert callbacks resolved to the
  /// exact insert/remove/update they performed), so they serialize
  /// without code and replaying committed batches in ticket order
  /// through a fresh relation reproduces the represented relation
  /// exactly. Ticket draw and hook invocation are atomic under one
  /// mutex, so the hook observes strictly increasing tickets: an
  /// append-only log fed by this hook is in ticket order by
  /// construction. The hook must not call back into this relation and
  /// should be fast (an in-memory append; defer fsync to group
  /// commit). Install before any concurrent use; installing while
  /// writers run is a race. Batches whose net effect is empty are not
  /// reported.
  using CommitHook =
      std::function<void(uint64_t Ticket, const std::vector<TxOp> &Redo)>;
  void setCommitHook(CommitHook H) { Hook = std::move(H); }

  /// Recovery support: restarts the commit-ticket counter at \p Next,
  /// so tickets stay monotone across a WAL replay (replayed history
  /// consumed tickets up to Next-1). Call before any concurrent use.
  void seedTickets(uint64_t Next) {
    TxTickets.store(Next, std::memory_order_relaxed);
  }

  /// Group-commit support: acquires exactly the stripes of \p Plan
  /// (exclusive, ascending, with the epoch writer fence raised on the
  /// matching gates), runs \p Body, then releases. \p Body typically
  /// applies several compatible transactions via transactPreLocked —
  /// one stripe acquisition amortized over the group.
  void withTxLocks(const TxLockPlan &Plan, function_ref<void()> Body);

  /// Applies \p Ops as one transaction with locking delegated to the
  /// caller: every stripe in \p Scope — which must cover
  /// transactLockPlan(Ops) — is already held exclusively (see
  /// withTxLocks). Same semantics and results as transact, including
  /// the commit hook.
  TxResult transactPreLocked(const std::vector<TxOp> &Ops,
                             const std::vector<unsigned> &Scope) {
    return transactLocked(Ops, Scope);
  }

  /// query r s C, deduplicated across shards. The shape must have a
  /// valid plan (see canPlan).
  std::vector<Tuple> query(const Tuple &Pattern, ColumnSet OutputCols) const;

  /// Whether a query binding \p InputCols and returning \p OutputCols
  /// has a valid plan. Lock-free and safe against concurrent writers:
  /// it plans over the facade's own decomposition copy, never a shard
  /// slot (writers COW-swap those under their stripe).
  bool canPlan(ColumnSet InputCols, ColumnSet OutputCols) const {
    return Shapes.plan(InputCols, OutputCols) != nullptr;
  }

  /// Streaming scan; like the sequential engine, no deduplication.
  /// Fan-out scans visit shards in index order under successive reader
  /// locks: each shard's results are a consistent snapshot, but a
  /// writer may commit between shards (see docs/CONCURRENCY.md).
  void scan(const Tuple &Pattern, ColumnSet OutputCols,
            function_ref<bool(const Tuple &)> Fn) const;

  /// As scan, delivering borrowed BindingFrames (zero-allocation path;
  /// the frame is the visited shard's stack frame).
  void scanFrames(const Tuple &Pattern, ColumnSet OutputCols,
                  function_ref<bool(const BindingFrame &)> Fn) const;

  /// Parallel fan-out scan: one task per shard runs on the persistent
  /// scan worker pool (concurrent/ScanPool.h — no per-call thread
  /// spawn), scans under its shard's reader lock, and feeds row chunks
  /// into a bounded merge queue (ConcurrentOptions::ScanQueueCapacity
  /// rows); \p Fn runs on the calling thread and sees the same
  /// multiset of frames as the sequential fan-out, in arbitrary
  /// per-shard-chunked order. Routed patterns (which touch one shard)
  /// degrade to the sequential path. Like scanFrames, \p Fn must not
  /// call back into this relation — a mutation would deadlock against
  /// a queue-blocked shard task.
  void scanFramesParallel(const Tuple &Pattern, ColumnSet OutputCols,
                          function_ref<bool(const BindingFrame &)> Fn) const;

  /// As scanFramesParallel, delivering materialized tuples.
  void scanParallel(const Tuple &Pattern, ColumnSet OutputCols,
                    function_ref<bool(const Tuple &)> Fn) const;

  /// True if some tuple extends \p Pattern.
  bool contains(const Tuple &Pattern) const;

  /// Lock-free; exact whenever it does not race a mutation.
  size_t size() const { return Count.load(std::memory_order_relaxed); }
  bool empty() const { return size() == 0; }

  /// Empties every shard (all writer locks).
  void clear();

  //===--------------------------------------------------------------------===
  // Consistent snapshots (COW shard state + RCU reclamation).
  //===--------------------------------------------------------------------===

  /// A refcounted, immutable, globally consistent view of the whole
  /// relation, acquired by snapshot() in O(shards) with no data copy.
  /// The handle pins the shard instances (and their slab arenas) that
  /// were live at acquisition: writers that later touch a pinned shard
  /// clone it copy-on-write and swap in the clone, so the handle keeps
  /// reading frozen state, lock-free, for as long as it lives. Dropping
  /// the last reference releases the frozen instances — the write side
  /// retired its own references through EpochManager at clone time, so
  /// the state is reclaimed once both the grace period and the last
  /// handle are gone. Copyable and movable; a default-constructed
  /// handle is empty (valid() == false).
  class Snapshot {
  public:
    Snapshot() = default;
    /// The handle participates in the pin-count protocol writable()
    /// relies on: construction/copy increment each pinned shard's pin
    /// counter (the 0->1 transition only ever happens inside
    /// snapshot(), under the all-stripe SHARED guard; copies start
    /// from a count the source handle already holds above zero), and
    /// destruction decrements with RELEASE order — the edge that
    /// makes a writer's later acquire-load-of-zero happen-after every
    /// read this handle performed.
    Snapshot(const Snapshot &O)
        : Shards(O.Shards), Pins(O.Pins), Ticket(O.Ticket), Count(O.Count) {
      for (const std::shared_ptr<std::atomic<size_t>> &P : Pins)
        P->fetch_add(1, std::memory_order_relaxed);
    }
    Snapshot &operator=(const Snapshot &O) {
      if (this != &O) {
        Snapshot Tmp(O);
        *this = std::move(Tmp);
      }
      return *this;
    }
    /// Vector moves leave the source empty, so a moved-from handle
    /// holds no pins and its destructor is a no-op.
    Snapshot(Snapshot &&O) noexcept = default;
    Snapshot &operator=(Snapshot &&O) noexcept {
      if (this != &O) {
        unpinAll();
        Shards = std::move(O.Shards);
        Pins = std::move(O.Pins);
        Ticket = O.Ticket;
        Count = O.Count;
        O.Shards.clear();
        O.Pins.clear();
      }
      return *this;
    }
    ~Snapshot() { unpinAll(); }

    bool valid() const { return !Shards.empty(); }
    unsigned numShards() const {
      return static_cast<unsigned>(Shards.size());
    }
    /// Newest commit ticket included in this snapshot: every commit
    /// with ticket <= ticket() is visible, none above it.
    uint64_t ticket() const { return Ticket; }
    /// Tuples across all pinned shards (exact: counted under the same
    /// acquisition that pinned them).
    size_t size() const { return Count; }
    bool empty() const { return Count == 0; }

    /// Direct access to pinned shard \p I (immutable; reads are
    /// reentrant and thread-safe, no locks involved).
    const SynthesizedRelation &shard(unsigned I) const {
      assert(I < Shards.size() && "shard index out of range");
      return *Shards[I];
    }

    /// Streaming scan over the snapshot — the sequential fan-out shape
    /// of ConcurrentRelation::scanFrames, but lock-free and immune to
    /// concurrent writers.
    void scanFrames(const Tuple &Pattern, ColumnSet OutputCols,
                    function_ref<bool(const BindingFrame &)> Fn) const;

    /// α of the snapshot: the union of the pinned shard relations.
    Relation toRelation() const;

    /// Live NodeInstances across the pinned shards.
    size_t liveInstances() const;

  private:
    friend class ConcurrentRelation;
    void unpinAll() {
      for (const std::shared_ptr<std::atomic<size_t>> &P : Pins)
        P->fetch_sub(1, std::memory_order_release);
    }
    std::vector<std::shared_ptr<const SynthesizedRelation>> Shards;
    /// Per-shard pin counters, paired with Shards entry for entry (the
    /// counter travels with the state generation it pins — a COW swap
    /// installs a fresh counter with the fresh state).
    std::vector<std::shared_ptr<std::atomic<size_t>>> Pins;
    uint64_t Ticket = 0;
    size_t Count = 0;
  };

  /// Acquires a consistent snapshot: one brief all-stripe SHARED
  /// acquisition (writers excluded, readers admitted) covers reading
  /// the N shard pointers, the commit ticket, and the size — O(shards)
  /// work, no per-tuple work under any lock. The returned handle is
  /// self-contained; serialization/extraction happens against it with
  /// no facade locks held, while commits keep flowing (the first write
  /// to each pinned shard pays a one-time COW clone of that shard).
  Snapshot snapshot() const;

  //===--------------------------------------------------------------------===
  // Introspection (tests, benches).
  //===--------------------------------------------------------------------===

  /// α(d): the union of the shard relations — a globally consistent
  /// snapshot even while writers run. Implemented as snapshot()
  /// followed by lock-free extraction from the pinned handle, so the
  /// stripes are held only for the O(shards) pointer grab, not the
  /// O(n) extraction.
  Relation toRelation() const;

  /// Live NodeInstances across shards (leak checks).
  size_t liveInstances() const;

  /// Allocator counters of shard \p I's private slab arena, read under
  /// the shard's reader lock (the shard pointer itself is COW-swapped
  /// by writers). ArenaStats fields are relaxed atomics underneath, so
  /// the numbers are a moving target; quiesce for exactness.
  ArenaStats shardArenaStats(unsigned I) const {
    assert(I < Shards.size() && "shard index out of range");
    auto Lock = Locks.shared(I);
    return Shards[I]->arenaStats();
  }

  /// Sum of every shard's arena counters (server stats / memory
  /// accounting). Same consistency caveat as shardArenaStats.
  ArenaStats arenaStats() const {
    ArenaStats Total;
    for (unsigned I = 0; I != Shards.size(); ++I) {
      ArenaStats A = shardArenaStats(I);
      Total.Slabs += A.Slabs;
      Total.Bytes += A.Bytes;
      Total.Live += A.Live;
      Total.Recycled += A.Recycled;
    }
    return Total;
  }

  /// Profiling-guided replanning of every shard against its own live
  /// fanouts, under all writer locks (no reader may hold a plan).
  void reoptimize();

  /// Direct shard access for tests and benches. The caller is
  /// responsible for exclusion (e.g. after joining all worker
  /// threads); the facade's locks are not taken.
  const SynthesizedRelation &shard(unsigned I) const { return *Shards[I]; }

private:
  size_t removeAllShards(const Tuple &Pattern);
  size_t updateRehoming(const Tuple &Pattern, const Tuple &Changes);

  /// Copy-on-write gate every mutation runs through: with shard \p S's
  /// stripe held exclusively (and its fence raised), returns the shard
  /// instance to mutate. When no snapshot pins the instance
  /// (Pins[S] == 0) that is the live instance itself; otherwise the
  /// instance is cloned (O(shard) — the one-time cost of the first
  /// write after a snapshot), the frozen original's arena is detached
  /// from the epoch hand-back protocol, the facade's reference to it
  /// is retired through EpochManager, and the clone (with a fresh pin
  /// counter) is swapped in.
  /// The pin probe is sound AND racefree: the 0->1 transition only
  /// happens under the all-stripes SHARED acquisition of snapshot()
  /// (excluded by our exclusive stripe) — handle copies increment a
  /// count their source handle already holds above zero — and handle
  /// drops decrement with RELEASE order, so the acquire-load reading
  /// zero happens-after every read the dropped handles made (an edge
  /// a relaxed shared_ptr::use_count probe would not provide). A drop
  /// racing the load at worst leaves the count inflated and costs a
  /// spurious clone.
  SynthesizedRelation &writable(unsigned S);

  /// A fresh, empty shard instance (concurrent reads + deferred
  /// reclamation enabled, like the constructor's).
  std::shared_ptr<SynthesizedRelation> freshShard() const;

  /// Hands the facade's reference to a frozen shard instance to the
  /// epoch retire list; the instance is destroyed after the grace
  /// period AND the last snapshot handle drop.
  static void retireShardRef(std::shared_ptr<SynthesizedRelation> Old);

  /// Runs \p Body with read access to shard \p S: wait-free inside an
  /// epoch section tagged with the shard's gate when no writer is
  /// active on it, else under the shard's reader lock. \p Body may run
  /// twice only in the sense that the epoch attempt is abandoned
  /// *before* Body starts — Body itself always runs exactly once.
  template <typename BodyT> void readShard(unsigned S, BodyT &&Body) const {
    {
      EpochGuard Guard(&Gates[S]);
      if (!Gates[S].writerActive()) {
        Body();
        return;
      }
    }
    auto Lock = Locks.shared(S);
    Body();
  }

  /// Fence covering every shard's gate (fan-out mutations).
  EpochWriterFence fenceAll() {
    return EpochWriterFence(Gates.get(), AllShardIdx.data(),
                            AllShardIdx.size());
  }

  /// The single shard a transact op touches, or nullopt when it must
  /// run under every stripe: its pattern misses the shard column, it
  /// may rewrite the shard column (migration), or — for insert-like
  /// ops — an FD's left-hand side misses the shard column, so the
  /// conflict probe itself cannot be confined to one shard.
  std::optional<unsigned> txRoutedShard(const TxOp &Op) const;

  /// Applies the batch with every stripe in \p Scope already held
  /// exclusively by the caller (Scope lists all stripes for fan-out
  /// batches); maintains Count from the scope's size delta and stamps
  /// the commit ticket.
  TxResult transactLocked(const std::vector<TxOp> &Ops,
                          const std::vector<unsigned> &Scope);

  ShardRouter Router;
  StripedLockSet Locks;
  /// One writer gate per shard for the epoch read path (cache-line
  /// padded, like the stripes).
  std::unique_ptr<EpochGate[]> Gates;
  /// 0..NumShards-1, for all-gate fences.
  std::vector<unsigned> AllShardIdx;
  /// The facade's own immutable copy of the decomposition: the source
  /// for spec()/catalog()/decomp() and for COW shard clones, readable
  /// without any lock.
  Decomposition Proto;
  /// Thread-safe plan cache over a copy of Proto, for canPlan. Plan
  /// validity does not depend on cost parameters, so defaults serve.
  mutable PlanCache Shapes;
  /// The live shard instances. shared_ptr: snapshot() pins the current
  /// instances by reference and writers COW-swap pinned ones (see
  /// writable()); each slot is only ever read or written under its
  /// stripe / gate discipline, never concurrently with the swap.
  std::vector<std::shared_ptr<SynthesizedRelation>> Shards;
  /// Pin counter per shard slot, paired with Shards[S]: how many live
  /// Snapshot handles pin that state generation. Lifetime rides a
  /// shared_ptr because handles may outlive the relation; see
  /// writable() for the acquire/release protocol.
  std::vector<std::shared_ptr<std::atomic<size_t>>> Pins;
  std::atomic<size_t> Count{0};
  /// Monotone commit tickets for transact (see TxResult::Ticket).
  std::atomic<uint64_t> TxTickets{1};
  /// Durability hook (setCommitHook) and the mutex making ticket draw
  /// + hook call one atomic step, so hook order == ticket order.
  CommitHook Hook;
  std::mutex HookMu;
  size_t ScanQueueCap;
  /// True if every FD's left-hand side contains the shard column, so
  /// every conflict probe for a tuple lands in that tuple's own shard
  /// and routed transact ops can validate FDs shard-locally.
  bool FdProbesRoute;
};

} // namespace relc

#endif // RELC_CONCURRENT_CONCURRENTRELATION_H
