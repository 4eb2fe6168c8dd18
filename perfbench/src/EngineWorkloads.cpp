//===- perfbench/src/EngineWorkloads.cpp - embedded and compiled ----------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
//
// The two engine workloads run one seeded op stream, with no server,
// against the scheduler relation of tests/codegen/golden/sched_conc_ns.relc
// (4 shards on ns, 1M rows, 4 threads):
//
//   embedded  the interpreted ConcurrentRelation over that spec's
//             decomposition;
//   compiled  genconc::sched_ns_concurrent from the relc-emitted golden
//             header, which GoldenHeaderTest keeps byte-identical to
//             relc's output.
//
// Key k is (ns k % 1024, pid k / 1024) with state stateOf(k) fixed for
// life, so every row a query returns can be checked. Keys fall into
// three classes by k % 8, which keeps the invariants checkable while
// four threads run: 0-3 take two-key cpu transfers (their cpu sum is
// conserved), 4-5 take cpu updates and upserts, 6-7 are removed and
// reinserted by the one thread that owns them (so the row count is
// back to 1M once the threads stop). Lookups target classes 0-5.
// 80% of key draws come from a hot set of 1/16 of the keys.
//
// The emitted concurrent facade has no routed point read, so the
// compiled workload's lookup is the nearest call it offers: a one-key
// transaction whose callback reads and aborts. That cost is part of
// what the workload measures.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "codegen/SpecFile.h"
#include "concurrent/ConcurrentRelation.h"
#include "concurrent/ShardRouter.h"
#include "sched_conc_ns_gen.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <thread>

using namespace relc;

namespace pb {
namespace {

constexpr int64_t NumNs = 1024;
constexpr int64_t NumKeys = int64_t(1) << 20;
constexpr int64_t NumStates = 1024;
constexpr int64_t InitialCpu = 100;
/// Every SampleStride-th op of a thread is timed (and traced).
constexpr uint64_t SampleStride = 16;

int64_t nsOf(int64_t K) { return K % NumNs; }
int64_t pidOf(int64_t K) { return K / NumNs; }
int64_t keyOf(int64_t Ns, int64_t Pid) { return Pid * NumNs + Ns; }
int64_t stateOf(int64_t K) {
  return static_cast<int64_t>(hashMix64(static_cast<uint64_t>(K) + 77) %
                              NumStates);
}
bool isTransferKey(int64_t K) { return K % 8 < 4; }
/// Sum of the transfer class's cpu column, conserved by transfers.
constexpr int64_t TransferCpuSum = NumKeys / 2 * InitialCpu;

enum OpKind { OpLookup, OpUpdate, OpUpsert, OpTransfer, OpChurn, OpScan };
const char *const OpNames[] = {"lookup", "update", "upsert",
                               "transact", "churn", "scan"};

/// The op stream: the same seed gives the same draws to both engines.
class Stream {
public:
  Stream(uint64_t Seed, int Thread, int Threads)
      : G(Seed, 1000 + Thread), Thread(Thread), Threads(Threads) {}

  OpKind kind() {
    double U = G.unit();
    if (U < 0.70)
      return OpLookup;
    if (U < 0.77)
      return OpUpdate;
    if (U < 0.84)
      return OpUpsert;
    if (U < 0.94)
      return OpTransfer;
    if (U < 0.995)
      return OpChurn;
    return OpScan;
  }
  /// A skewed key of the given class slot range [Lo, Hi).
  int64_t key(int64_t Lo, int64_t Hi) {
    uint64_t R = G.unit() < 0.8 ? G.below(NumKeys / 16) : G.below(NumKeys);
    int64_t K = static_cast<int64_t>((R * 0x9E3779B1ull) % NumKeys);
    return (K & ~int64_t(7)) | (Lo + static_cast<int64_t>(G.below(Hi - Lo)));
  }
  int64_t lookupKey() { return key(0, 6); }
  int64_t transferKey() { return key(0, 4); }
  int64_t updateKey() { return key(4, 6); }
  /// A churn-class key owned by this thread.
  int64_t churnKey() {
    int64_t K = key(6, 8);
    int64_t Group = K / 8;
    Group = Group - Group % Threads + Thread;
    return Group * 8 + K % 8;
  }
  int64_t amount() { return 1 + static_cast<int64_t>(G.below(10)); }
  int64_t cpu() { return static_cast<int64_t>(G.below(1000)); }
  int64_t state() { return static_cast<int64_t>(G.below(NumStates)); }

private:
  Rng G;
  int Thread, Threads;
};

//===----------------------------------------------------------------------===//
// The interpreted engine
//===----------------------------------------------------------------------===//

SpecFile loadSchedSpec() {
  std::ifstream In(PERFBENCH_SCHED_SPEC);
  std::stringstream Text;
  Text << In.rdbuf();
  SpecFileResult R = parseSpecFile(Text.str());
  if (!R.ok() || !R.File->Decomp) {
    std::fprintf(stderr, "perfbench: cannot load %s: %s\n",
                 PERFBENCH_SCHED_SPEC, R.message().c_str());
    std::exit(2);
  }
  return std::move(*R.File);
}

class Interp {
public:
  static constexpr uint32_t Query = SpConcQuery, Update = SpConcUpdate,
                            Upsert = SpConcUpsert, Transact = SpConcTransact,
                            Churn = SpConcChurn, Scan = SpConcScan;

  explicit Interp(const SpecFile &F)
      : Rel(*F.Decomp, options(F)), Cat(Rel.catalog()), Ns(Cat.get("ns")),
        Pid(Cat.get("pid")), State(Cat.get("state")), Cpu(Cat.get("cpu")) {}

  static ConcurrentOptions options(const SpecFile &F) {
    ConcurrentOptions O;
    O.NumShards = F.Options.ConcurrentShards;
    O.ShardColumn = F.Options.ConcurrentShardColumn;
    return O;
  }

  Tuple key(int64_t K) const {
    Tuple T;
    T.set(Ns, Value::ofInt(nsOf(K)));
    T.set(Pid, Value::ofInt(pidOf(K)));
    return T;
  }
  Tuple row(int64_t K, int64_t C) const {
    Tuple T = key(K);
    T.set(State, Value::ofInt(stateOf(K)));
    T.set(Cpu, Value::ofInt(C));
    return T;
  }

  bool insert(int64_t K, int64_t C) { return Rel.insert(row(K, C)); }
  bool lookup(int64_t K) const {
    std::vector<Tuple> Rows =
        Rel.query(key(K), ColumnSet({State, Cpu}));
    return Rows.size() == 1 && Rows[0].get(State).asInt() == stateOf(K);
  }
  bool update(int64_t K, int64_t C) {
    Tuple Changes;
    Changes.set(Cpu, Value::ofInt(C));
    return Rel.update(key(K), Changes) == 1;
  }
  bool upsert(int64_t K) {
    bool Found = false;
    ColumnId CpuCol = Cpu;
    Rel.upsert(key(K), [&](const BindingFrame *F, Tuple &V) {
      Found = F != nullptr;
      int64_t Old = F ? F->get(CpuCol).asInt() : 0;
      V.set(CpuCol, Value::ofInt((Old + 1) % 1000));
    });
    return Found;
  }
  /// Moves \p Amt cpu from \p A to \p B; false when the floor guard
  /// aborts.
  bool transfer(int64_t A, int64_t B, int64_t Amt) {
    ColumnId CpuCol = Cpu;
    std::vector<TxOp> Ops;
    Ops.push_back(TxOp::upsertChecked(
        key(A), [CpuCol, Amt](const BindingFrame *F, Tuple &V) {
          if (!F || F->get(CpuCol).asInt() < Amt)
            return false;
          V.set(CpuCol, Value::ofInt(F->get(CpuCol).asInt() - Amt));
          return true;
        }));
    Ops.push_back(TxOp::upsertChecked(
        key(B), [CpuCol, Amt](const BindingFrame *F, Tuple &V) {
          if (!F)
            return false;
          V.set(CpuCol, Value::ofInt(F->get(CpuCol).asInt() + Amt));
          return true;
        }));
    return Rel.transact(Ops).Committed;
  }
  bool churn(int64_t K, bool Trace, uint64_t Parent) {
    uint64_t T0 = Trace ? nowNs() : 0;
    size_t Removed = Rel.remove(key(K));
    uint64_t T1 = Trace ? nowNs() : 0;
    bool Inserted = Rel.insert(row(K, InitialCpu));
    if (Trace) {
      trace::record(SpConcRemove, T0, T1, Parent);
      trace::record(SpConcInsert, T1, nowNs(), Parent);
    }
    return Removed == 1 && Inserted;
  }
  /// by_state fan-out; returns rows, or -1 when a row carries another
  /// state.
  int64_t byState(int64_t S) const {
    Tuple P;
    P.set(State, Value::ofInt(S));
    std::vector<Tuple> Rows = Rel.query(P, ColumnSet({Ns, Pid, State}));
    for (const Tuple &T : Rows)
      if (T.get(State).asInt() != S ||
          stateOf(keyOf(T.get(Ns).asInt(), T.get(Pid).asInt())) != S)
        return -1;
    return static_cast<int64_t>(Rows.size());
  }
  size_t size() const { return Rel.size(); }
  template <typename FnT> void forEachRow(FnT &&Fn) const {
    Rel.scan(Tuple(), Rel.spec()->columns(), [&](const Tuple &T) {
      Fn(keyOf(T.get(Ns).asInt(), T.get(Pid).asInt()), T.get(State).asInt(),
         T.get(Cpu).asInt());
      return true;
    });
  }

  ConcurrentRelation Rel;
  const Catalog &Cat;
  ColumnId Ns, Pid, State, Cpu;
};

//===----------------------------------------------------------------------===//
// The relc-emitted facade
//===----------------------------------------------------------------------===//

class Gen {
public:
  static constexpr uint32_t Query = SpGenQuery, Update = SpGenUpdate,
                            Upsert = SpGenUpsert, Transact = SpGenTransact,
                            Churn = SpGenChurn, Scan = SpGenScan;

  bool insert(int64_t K, int64_t C) {
    return Rel.insert(nsOf(K), pidOf(K), stateOf(K), C);
  }
  bool lookup(int64_t K) {
    bool Found = false;
    int64_t State = -1;
    Rel.transact_by_ns_pid(
        nsOf(K), pidOf(K), nsOf(K), pidOf(K),
        [&](bool FoundA, int64_t &AState, int64_t &, bool, int64_t &,
            int64_t &) {
          Found = FoundA;
          State = AState;
          return false;
        });
    return Found && State == stateOf(K);
  }
  bool update(int64_t K, int64_t C) {
    return Rel.update_by_ns_pid(nsOf(K), pidOf(K), stateOf(K), C);
  }
  bool upsert(int64_t K) {
    bool WasFound = false;
    int64_t St = stateOf(K);
    Rel.upsert_by_ns_pid(nsOf(K), pidOf(K),
                         [&](bool Found, int64_t &State, int64_t &Cpu) {
                           WasFound = Found;
                           if (!Found)
                             State = St;
                           Cpu = (Cpu + 1) % 1000;
                         });
    return WasFound;
  }
  bool transfer(int64_t A, int64_t B, int64_t Amt) {
    return Rel.transact_by_ns_pid(
        nsOf(A), pidOf(A), nsOf(B), pidOf(B),
        [Amt](bool FoundA, int64_t &, int64_t &ACpu, bool FoundB, int64_t &,
              int64_t &BCpu) {
          if (!FoundA || !FoundB || ACpu < Amt)
            return false;
          ACpu -= Amt;
          BCpu += Amt;
          return true;
        });
  }
  bool churn(int64_t K, bool Trace, uint64_t Parent) {
    uint64_t T0 = Trace ? nowNs() : 0;
    bool Removed = Rel.remove_by_ns_pid(nsOf(K), pidOf(K));
    uint64_t T1 = Trace ? nowNs() : 0;
    bool Inserted = insert(K, InitialCpu);
    if (Trace) {
      trace::record(SpGenRemove, T0, T1, Parent);
      trace::record(SpGenInsert, T1, nowNs(), Parent);
    }
    return Removed && Inserted;
  }
  int64_t byState(int64_t S) const {
    int64_t Rows = 0;
    bool Bad = false;
    Rel.by_state(S, [&](int64_t Ns, int64_t Pid) {
      ++Rows;
      if (stateOf(keyOf(Ns, Pid)) != S)
        Bad = true;
    });
    return Bad ? -1 : Rows;
  }
  size_t size() const { return Rel.size(); }
  template <typename FnT> void forEachRow(FnT &&Fn) const {
    Rel.all([&](int64_t Ns, int64_t Pid, int64_t State, int64_t Cpu) {
      Fn(keyOf(Ns, Pid), State, Cpu);
    });
  }

  genconc::sched_ns_concurrent Rel;
};

//===----------------------------------------------------------------------===//
// The measured loop
//===----------------------------------------------------------------------===//

struct ThreadTally {
  uint64_t Ops = 0, Failed = 0, ScanRows = 0, Allocs = 0;
  uint64_t PerKind[6] = {0, 0, 0, 0, 0, 0};
  std::vector<uint64_t> Op, Txn;
  std::string Wrong;
};

template <typename Sys>
void engineThread(Sys &S, uint64_t Seed, int Thread, int Threads,
                  uint64_t Deadline, bool Trace, ThreadTally &T) {
  Stream St(Seed, Thread, Threads);
  uint64_t Allocs0 = threadAllocs();
  for (uint64_t I = 0;; ++I) {
    bool Sampled = I % SampleStride == 0;
    if (Sampled && nowNs() >= Deadline)
      break;
    OpKind K = St.kind();
    uint64_t Start = Sampled ? nowNs() : 0;
    uint64_t SpanId = Sampled && Trace ? trace::newId() : 0;
    bool Ok = true;
    uint32_t Name = Sys::Query;
    uint64_t Arg = 0;
    switch (K) {
    case OpLookup:
      Ok = S.lookup(St.lookupKey());
      break;
    case OpUpdate:
      Name = Sys::Update;
      Ok = S.update(St.updateKey(), St.cpu());
      break;
    case OpUpsert:
      Name = Sys::Upsert;
      Ok = S.upsert(St.updateKey());
      break;
    case OpTransfer: {
      Name = Sys::Transact;
      int64_t A = St.transferKey(), B = St.transferKey();
      if (A == B)
        B ^= 1; // stays in the transfer class
      S.transfer(A, B, St.amount()); // a floor-guard abort is an outcome
      break;
    }
    case OpChurn:
      Name = Sys::Churn;
      Ok = S.churn(St.churnKey(), SpanId != 0, SpanId);
      break;
    case OpScan: {
      Name = Sys::Scan;
      int64_t Rows = S.byState(St.state());
      Ok = Rows >= 0;
      Arg = Ok ? static_cast<uint64_t>(Rows) : 0;
      T.ScanRows += Arg;
      break;
    }
    }
    if (Sampled) {
      uint64_t End = nowNs();
      T.Op.push_back(End - Start);
      if (K == OpTransfer)
        T.Txn.push_back(End - Start);
      if (SpanId)
        trace::record(Name, Start, End, 0, 0, Arg, SpanId);
    }
    ++T.Ops;
    ++T.PerKind[K];
    if (!Ok && T.Failed++ == 0)
      T.Wrong = std::string(OpNames[K]) + " returned a wrong result";
  }
  T.Allocs = threadAllocs() - Allocs0;
}

template <typename Sys>
void runSlice(Sys &S, uint64_t Seed, double Seconds, int Threads, bool Trace,
              const std::string &Key, Report &R) {
  trace::On.store(Trace);
  std::vector<ThreadTally> Tallies(Threads);
  uint64_t Start = nowNs();
  uint64_t Deadline = Start + static_cast<uint64_t>(Seconds * 1e9);
  std::vector<std::thread> Pool;
  for (int I = 0; I != Threads; ++I)
    Pool.emplace_back([&, I] {
      engineThread(S, Seed, I, Threads, Deadline, Trace, Tallies[I]);
    });
  for (std::thread &T : Pool)
    T.join();
  uint64_t End = nowNs();
  trace::On.store(false);
  uint64_t Ops = 0, Failed = 0, ScanRows = 0, Allocs = 0;
  uint64_t PerKind[6] = {0, 0, 0, 0, 0, 0};
  std::vector<uint64_t> &Op = R.samples(Key + "lat.op");
  std::vector<uint64_t> &Txn = R.samples(Key + "lat.txn");
  for (ThreadTally &T : Tallies) {
    Ops += T.Ops;
    Failed += T.Failed;
    ScanRows += T.ScanRows;
    Allocs += T.Allocs;
    for (int K = 0; K != 6; ++K)
      PerKind[K] += T.PerKind[K];
    Op.insert(Op.end(), T.Op.begin(), T.Op.end());
    Txn.insert(Txn.end(), T.Txn.begin(), T.Txn.end());
    if (!T.Wrong.empty())
      R.violation(T.Wrong);
  }
  R.scalar(Key + "ops", static_cast<double>(Ops));
  R.scalar(Key + "seconds", (End - Start) / 1e9);
  R.scalar(Key + "attempted", static_cast<double>(Ops));
  R.scalar(Key + "failed", static_cast<double>(Failed));
  R.scalar(Key + "allocs", static_cast<double>(Allocs));
  R.scalar(Key + "scan_rows", static_cast<double>(ScanRows));
  for (int K = 0; K != 6; ++K)
    R.scalar(Key + "ops." + OpNames[K], static_cast<double>(PerKind[K]));
}

/// Row count unchanged after churn, the transfer class's cpu sum
/// conserved, every row carrying its key's state.
template <typename Sys> void checkInvariants(const Sys &S, Report &R) {
  int64_t Rows = 0, CpuSum = 0, BadState = 0;
  S.forEachRow([&](int64_t K, int64_t State, int64_t Cpu) {
    ++Rows;
    if (State != stateOf(K))
      ++BadState;
    if (isTransferKey(K))
      CpuSum += Cpu;
  });
  std::printf("check: rows %lld size %zu transfer-class cpu %lld\n",
              static_cast<long long>(Rows), S.size(),
              static_cast<long long>(CpuSum));
  if (Rows != NumKeys || S.size() != static_cast<size_t>(NumKeys))
    R.violation("row count " + std::to_string(Rows) + " (size " +
                std::to_string(S.size()) + "), want " +
                std::to_string(NumKeys));
  if (CpuSum != TransferCpuSum)
    R.violation("transfer-class cpu sum " + std::to_string(CpuSum) +
                ", want " + std::to_string(TransferCpuSum));
  if (BadState)
    R.violation(std::to_string(BadState) + " rows carry a foreign state");
}

template <typename Sys> void bulkLoad(Sys &S) {
  for (int64_t K = 0; K != NumKeys; ++K)
    S.insert(K, InitialCpu);
}

/// p50-style per-call samples of \p Fn on one thread.
template <typename FnT>
void timeCalls(Report &R, const std::string &Key, int N, FnT &&Fn) {
  std::vector<uint64_t> &Out = R.samples(Key);
  for (int I = 0; I != N; ++I) {
    uint64_t Start = nowNs();
    Fn(I);
    Out.push_back(nowNs() - Start);
  }
}

//===----------------------------------------------------------------------===//
// Layer measurements of the trace suite
//===----------------------------------------------------------------------===//

/// concurrent.*: one-thread per-call costs, snapshot(), copy-on-write
/// after a snapshot, arena bytes per row.
void concurrentLayer(Interp &S, uint64_t Seed, Report &R) {
  Stream St(Seed, 9, 1);
  timeCalls(R, "concurrent.query", 20000,
            [&](int) { S.lookup(St.lookupKey()); });
  timeCalls(R, "concurrent.upsert", 20000,
            [&](int) { S.upsert(St.updateKey()); });
  timeCalls(R, "concurrent.transact", 20000, [&](int) {
    int64_t A = St.transferKey(), B = St.transferKey();
    S.transfer(A, A == B ? B ^ 1 : B, St.amount());
  });
  for (int I = 0; I != 40; ++I) {
    uint64_t Start = nowNs();
    ConcurrentRelation::Snapshot Snap = S.Rel.snapshot();
    uint64_t End = nowNs();
    R.samples("concurrent.snapshot").push_back(End - Start);
    trace::record(SpConcSnapshot, Start, End, 0, 0, Snap.size());
  }
  // The first write into each shard pinned by a live snapshot clones
  // that shard. Each round writes one update-class key per shard
  // (rewriting its cpu value unchanged would still clone, but upsert
  // keeps the class semantics), then drops the handle.
  ShardRouter Router(S.Ns, S.Rel.numShards());
  for (int Round = 0; Round != 6; ++Round) {
    ConcurrentRelation::Snapshot Snap = S.Rel.snapshot();
    std::vector<bool> Done(S.Rel.numShards(), false);
    for (int64_t K = 4 + 8 * Round; std::count(Done.begin(), Done.end(),
                                                false) != 0;
         K += 8 * 7) {
      unsigned Shard = Router.shardOf(Value::ofInt(nsOf(K)));
      if (Done[Shard])
        continue;
      Done[Shard] = true;
      uint64_t Start = nowNs();
      S.upsert(K);
      uint64_t End = nowNs();
      R.samples("concurrent.cow_write").push_back(End - Start);
      trace::record(SpConcCowWrite, Start, End);
    }
  }
  ArenaStats A = S.Rel.arenaStats();
  R.scalar("runtime.arena_bytes", static_cast<double>(A.Bytes));
  R.scalar("runtime.rows", static_cast<double>(S.size()));
}

/// runtime.*: the same calls on one shard-sized SynthesizedRelation.
void runtimeLayer(const SpecFile &F, uint64_t Seed, Report &R) {
  SynthesizedRelation Rel(*F.Decomp);
  const Catalog &Cat = Rel.catalog();
  ColumnId Ns = Cat.get("ns"), Pid = Cat.get("pid"), State = Cat.get("state"),
           Cpu = Cat.get("cpu");
  const int64_t Rows = NumKeys / 4;
  auto key = [&](int64_t K) {
    Tuple T;
    T.set(Ns, Value::ofInt(nsOf(K)));
    T.set(Pid, Value::ofInt(pidOf(K)));
    return T;
  };
  auto row = [&](int64_t K) {
    Tuple T = key(K);
    T.set(State, Value::ofInt(stateOf(K)));
    T.set(Cpu, Value::ofInt(InitialCpu));
    return T;
  };
  for (int64_t K = 0; K != Rows; ++K)
    Rel.insert(row(K));
  Rng G(Seed, 11);
  ColumnSet Out = ColumnSet({State, Cpu});
  timeCalls(R, "runtime.query", 20000, [&](int) {
    uint64_t Start = nowNs();
    std::vector<Tuple> Got = Rel.query(key(G.below(Rows)), Out);
    if (Got.size() != 1)
      R.violation("runtime query missed its row");
    trace::record(SpRtQuery, Start, nowNs());
  });
  timeCalls(R, "runtime.upsert", 20000, [&](int) {
    uint64_t Start = nowNs();
    Rel.upsert(key(G.below(Rows)), [&](const BindingFrame *Fr, Tuple &V) {
      V.set(Cpu, Value::ofInt(Fr ? (Fr->get(Cpu).asInt() + 1) % 1000 : 0));
    });
    trace::record(SpRtUpsert, Start, nowNs());
  });
  timeCalls(R, "runtime.churn", 20000, [&](int) {
    int64_t K = static_cast<int64_t>(G.below(Rows));
    uint64_t Start = nowNs();
    Rel.remove(key(K));
    Rel.insert(row(K));
    trace::record(SpRtChurn, Start, nowNs());
  });
  if (Rel.size() != static_cast<size_t>(Rows))
    R.violation("runtime churn changed the row count");
}

/// codegen.*: the same calls on the emitted non-concurrent sched_ns.
void codegenLayer(uint64_t Seed, Report &R) {
  genconc::sched_ns Rel;
  const int64_t Rows = NumKeys / 4;
  for (int64_t K = 0; K != Rows; ++K)
    Rel.insert(nsOf(K), pidOf(K), stateOf(K), InitialCpu);
  Rng G(Seed, 12);
  timeCalls(R, "codegen.query", 20000, [&](int) {
    int64_t K = static_cast<int64_t>(G.below(Rows));
    int64_t State = 0, Cpu = 0;
    uint64_t Start = nowNs();
    bool Found = Rel.lookup_by_ns_pid(nsOf(K), pidOf(K), State, Cpu);
    trace::record(SpGenSeqQuery, Start, nowNs());
    if (!Found || State != stateOf(K))
      R.violation("generated lookup missed its row");
  });
  timeCalls(R, "codegen.upsert", 20000, [&](int) {
    int64_t K = static_cast<int64_t>(G.below(Rows));
    uint64_t Start = nowNs();
    Rel.upsert_by_ns_pid(nsOf(K), pidOf(K),
                         [](bool, int64_t &, int64_t &Cpu) {
                           Cpu = (Cpu + 1) % 1000;
                         });
    trace::record(SpGenSeqUpsert, Start, nowNs());
  });
}

template <typename Sys, typename MakeT>
bool runEngine(const Config &C, const std::string &Name, MakeT &&Make,
               Report &R, double SliceSeconds, bool TraceSuite,
               const std::function<void(Sys &)> &Layers) {
  // The end-to-end run builds C.Setups fresh relations and measures an
  // equal share of the run on each; the trace suite uses one.
  int Setups = TraceSuite ? 1 : C.Setups;
  for (int I = 0; I != Setups; ++I) {
    uint64_t T0 = nowNs();
    std::unique_ptr<Sys> S = Make();
    bulkLoad(*S);
    R.samples(Name + ".setup").push_back(nowNs() - T0);
    if (S->size() != static_cast<size_t>(NumKeys))
      R.violation("bulk load left " + std::to_string(S->size()) + " rows");
    uint64_t Seed = C.Seed * 64 + static_cast<uint64_t>(I);
    if (TraceSuite) {
      runSlice(*S, Seed, SliceSeconds, 4, false, Name + ".untraced.", R);
      runSlice(*S, Seed + 1, SliceSeconds, 4, true, Name + ".traced.", R);
      runSlice(*S, Seed, std::max(2.0, SliceSeconds / 4), 1, false,
               Name + ".t1.", R);
      checkInvariants(*S, R);
      trace::On.store(true);
      Layers(*S);
      trace::On.store(false);
    } else {
      runSlice(*S, Seed, SliceSeconds / Setups, 4, false,
               Name + ".run" + std::to_string(I) + ".", R);
    }
    checkInvariants(*S, R);
    recordPeak(I, Name, R);
  }
  return R.correct();
}

} // namespace

bool runEngineWorkload(const Config &C, bool Compiled, Report &R,
                       double SliceSeconds, bool TraceSuite) {
  if (Compiled)
    return runEngine<Gen>(
        C, "compiled", [] { return std::make_unique<Gen>(); }, R,
        SliceSeconds, TraceSuite,
        [&](Gen &) { codegenLayer(C.Seed, R); });
  SpecFile F = loadSchedSpec();
  return runEngine<Interp>(
      C, "embedded", [&] { return std::make_unique<Interp>(F); }, R,
      SliceSeconds, TraceSuite, [&](Interp &S) {
        concurrentLayer(S, C.Seed, R);
        runtimeLayer(F, C.Seed, R);
      });
}

} // namespace pb
