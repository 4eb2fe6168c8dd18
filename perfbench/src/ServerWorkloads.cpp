//===- perfbench/src/ServerWorkloads.cpp - transfer and lookup_ckpt -------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
//
// The two server workloads. Each runs the real RelServer in process
// over relserved's account relation and decomposition (8 shards, a WAL
// with fsync in a directory inside the checkout, no automatic
// checkpoints) and drives it only through RelClient, from 4 closed-loop
// connections:
//
//   transfer     64k accounts; each connection keeps 16 pipelined
//                two-`add` floor-guarded transfers in flight (64 in
//                total, the default MaxGroup), between uniform random
//                accounts.
//   lookup_ckpt  128k accounts; unpipelined connections send 90% point
//                queries and 10% transfers, and the connection whose
//                op crosses every CkptEvery-th op sends a Checkpoint in
//                line, so checkpoint work per op is fixed. (1M accounts
//                would put one checkpoint at ~90 s, past a run's time
//                limit: checkpoint time grows faster than the row
//                count, 0.6 s at 64k, 2 s at 128k, 5.8 s at 256k.)
//                Its transfers never touch an account of shard 0; see
//                lookupWritable().
//
// Account A is (owner A / 64, acct A % 64): a conservation query bound
// on `acct` returns N / 64 rows, which keeps every reply well under the
// wire's 1 MiB frame cap.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "concurrent/ShardRouter.h"
#include "decomp/Builder.h"
#include "server/Client.h"
#include "server/Server.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

using namespace relc;

namespace pb {
namespace {

constexpr int64_t InitialBalance = 1000;
constexpr int64_t AcctsPerOwner = 64;
constexpr int64_t SeedBatch = 8192;
constexpr unsigned NumShards = 8;
constexpr int TransferWindow = 16;
constexpr uint64_t CkptEvery = 250;
constexpr double TransferShare = 0.10;

RelSpecRef accountSpec() {
  return RelSpec::make("account", {"owner", "acct", "balance"},
                       {{"owner, acct", "balance"}});
}

/// relserved's decomposition (tools/relserved/relserved.cpp).
Decomposition accountDecomp(const RelSpecRef &Spec) {
  DecompBuilder B(Spec);
  NodeId U = B.addNode("u", "owner, acct", B.unit("balance"));
  NodeId Y = B.addNode("y", "owner", B.map("acct", DsKind::HashTable, U));
  B.addNode("x", "", B.map("owner", DsKind::HashTable, Y));
  return B.build();
}

struct Cols {
  ColumnId Owner, Acct, Bal;
  explicit Cols(const Catalog &Cat)
      : Owner(Cat.get("owner")), Acct(Cat.get("acct")),
        Bal(Cat.get("balance")) {}
  Tuple key(int64_t A) const {
    Tuple T;
    T.set(Owner, Value::ofInt(A / AcctsPerOwner));
    T.set(Acct, Value::ofInt(A % AcctsPerOwner));
    return T;
  }
  Tuple row(int64_t A, int64_t Balance) const {
    Tuple T = key(A);
    T.set(Bal, Value::ofInt(Balance));
    return T;
  }
  std::vector<wire::WireTxOp> transfer(int64_t From, int64_t To,
                                       int64_t Amt) const {
    return {wire::WireTxOp::add(key(From), Bal, -Amt, 0),
            wire::WireTxOp::add(key(To), Bal, Amt)};
  }
};

/// A served account relation plus the directory holding its WAL.
struct System {
  RelSpecRef Spec = accountSpec();
  Cols C{Spec->catalog()};
  /// The server's routing: owner, the decomposition's root key.
  ShardRouter Router{C.Owner, NumShards};
  std::string WalPath;
  int64_t Accounts = 0;
  std::unique_ptr<RelServer> Server;

  ServerOptions options() const {
    ServerOptions O;
    O.WalPath = WalPath;
    O.Concurrent.NumShards = NumShards;
    O.MaxGroup = 64;
    O.CheckpointEvery = 0;
    return O;
  }
  bool start(std::string &Err) {
    Server = std::make_unique<RelServer>(accountDecomp(Spec), options());
    return Server->start(&Err);
  }
  uint16_t port() const { return Server->port(); }
};

/// Server start plus seeding every account over the wire, in pipelined
/// transact batches (at most 4 in flight).
bool setUp(System &S, const std::string &Dir, int64_t Accounts,
           std::string &Err) {
  removeTree(Dir);
  if (!makeDirs(Dir)) {
    Err = "cannot create " + Dir;
    return false;
  }
  S.WalPath = Dir + "/account.wal";
  S.Accounts = Accounts;
  if (!S.start(Err))
    return false;
  RelClient Cli;
  if (!Cli.connect(S.port(), &Err))
    return false;
  int64_t Next = 0, InFlight = 0;
  while (Next < Accounts || InFlight > 0) {
    while (Next < Accounts && InFlight < 4) {
      std::vector<wire::WireTxOp> Batch;
      for (int64_t E = std::min(Accounts, Next + SeedBatch); Next != E; ++Next)
        Batch.push_back(wire::WireTxOp::insert(S.C.row(Next, InitialBalance)));
      if (!Cli.sendTransact(Batch)) {
        Err = "seeding: send failed";
        return false;
      }
      ++InFlight;
    }
    RelClient::Reply Rep;
    if (!Cli.recvReply(Rep) || !Rep.ok()) {
      Err = "seeding: batch not acknowledged: " + Rep.Error;
      return false;
    }
    --InFlight;
  }
  return true;
}

void tearDown(System &S) {
  if (S.Server)
    S.Server->stop();
  S.Server.reset();
}

/// Per-connection tallies of one slice. InWindow counts the completed
/// ops (of every type) whose reply arrived by the slice's deadline:
/// ops_per_s is InWindow over the slice's nominal length, so an op
/// still running at the deadline (a checkpoint takes seconds) neither
/// stretches the window nor counts.
struct ConnTally {
  uint64_t Attempted = 0, Ok = 0, Aborted = 0, Failed = 0;
  uint64_t Queries = 0, Checkpoints = 0, InWindow = 0;
  std::vector<uint64_t> Txn, Query, Ckpt, Op;
  std::vector<std::string> Wrong;
};

void merge(ConnTally &Into, ConnTally &From) {
  Into.Attempted += From.Attempted;
  Into.Ok += From.Ok;
  Into.Aborted += From.Aborted;
  Into.Failed += From.Failed;
  Into.Queries += From.Queries;
  Into.Checkpoints += From.Checkpoints;
  Into.InWindow += From.InWindow;
  for (auto [I, F] : {std::pair{&Into.Txn, &From.Txn},
                      {&Into.Query, &From.Query},
                      {&Into.Ckpt, &From.Ckpt},
                      {&Into.Op, &From.Op}})
    I->insert(I->end(), F->begin(), F->end());
  for (std::string &W : From.Wrong)
    Into.Wrong.push_back(std::move(W));
}

/// One connection of the transfer workload: a fixed window of
/// pipelined transfers, refilled as each reply arrives.
void transferConn(const System &S, uint64_t Seed, int Conn, uint64_t Deadline,
                  bool Trace, ConnTally &T) {
  RelClient Cli;
  std::string Err;
  if (!Cli.connect(S.port(), &Err)) {
    T.Failed++;
    T.Attempted++;
    T.Wrong.push_back("connect: " + Err);
    return;
  }
  Rng G(Seed, 100 + Conn);
  struct Pending {
    uint64_t Req, Start;
  };
  std::vector<Pending> InFlight;
  auto sendOne = [&] {
    int64_t From = static_cast<int64_t>(G.below(S.Accounts));
    int64_t To = static_cast<int64_t>(G.below(S.Accounts - 1));
    if (To >= From)
      ++To;
    int64_t Amt = 1 + static_cast<int64_t>(G.below(10));
    uint64_t Start = nowNs();
    uint64_t Req = Cli.sendTransact(S.C.transfer(From, To, Amt));
    T.Attempted++;
    if (!Req) {
      T.Failed++;
      return false;
    }
    InFlight.push_back({Req, Start});
    return true;
  };
  while (InFlight.size() < TransferWindow && sendOne()) {
  }
  while (!InFlight.empty()) {
    RelClient::Reply Rep;
    if (!Cli.recvReply(Rep)) {
      T.Failed += InFlight.size();
      T.Wrong.push_back("transport failure on a transfer connection");
      return;
    }
    uint64_t End = nowNs();
    auto It = std::find_if(InFlight.begin(), InFlight.end(),
                           [&](const Pending &P) { return P.Req == Rep.ReqId; });
    if (It == InFlight.end()) {
      T.Failed++;
      T.Wrong.push_back("reply to an unknown request id");
      continue;
    }
    uint64_t Start = It->Start;
    InFlight.erase(It);
    if (Rep.ok()) {
      T.Ok++;
      T.InWindow += End <= Deadline;
      T.Txn.push_back(End - Start);
      T.Op.push_back(End - Start);
    } else if (Rep.aborted()) {
      T.Aborted++; // the floor guard: an outcome, not a failure
      T.InWindow += End <= Deadline;
      T.Txn.push_back(End - Start);
      T.Op.push_back(End - Start);
    } else {
      T.Failed++;
      T.Wrong.push_back("transfer answered Error: " + Rep.Error);
    }
    if (Trace)
      trace::record(SpClientTxn, Start, End, 0, Rep.ReqId);
    if (End < Deadline)
      sendOne();
  }
}

/// True when lookup_ckpt may write account \p A: its owner does not
/// route to shard 0. RelServer answers every Query after planning it
/// on Rel.shard(0), which reads the shard-0 slot with neither that
/// stripe nor an epoch section held, while a write to a shard pinned
/// by a checkpoint's snapshot makes the committer swap a copy-on-write
/// clone into the slot (ConcurrentRelation::writable), emptying it
/// for the moment it retires the old instance. A query racing that
/// swap dereferences an empty slot and the process dies of SIGSEGV.
/// Until the server plans queries under protection, lookup_ckpt reads
/// every account but writes none of shard 0, so shard 0 is never
/// cloned; the other seven shards still are, beside the reads.
bool lookupWritable(const System &S, int64_t A) {
  return S.Router.shardOf(Value::ofInt(A / AcctsPerOwner)) != 0;
}

/// One connection of lookup_ckpt: unpipelined point queries and
/// transfers, plus the in-line Checkpoint at every CkptEvery-th op.
void lookupConn(const System &S, uint64_t Seed, int Conn, uint64_t Deadline,
                bool Trace, std::atomic<uint64_t> &OpCounter, ConnTally &T) {
  RelClient Cli;
  std::string Err;
  if (!Cli.connect(S.port(), &Err)) {
    T.Failed++;
    T.Attempted++;
    T.Wrong.push_back("connect: " + Err);
    return;
  }
  Rng G(Seed, 200 + Conn);
  ColumnSet All = S.Spec->columns();
  std::vector<Tuple> Rows;
  while (nowNs() < Deadline) {
    uint64_t OpNo = OpCounter.fetch_add(1, std::memory_order_relaxed) + 1;
    if (OpNo % CkptEvery == 0) {
      RelClient::Reply Rep;
      uint64_t Start = nowNs();
      bool Sent = Cli.checkpoint(&Rep);
      uint64_t End = nowNs();
      T.Attempted++;
      if (!Sent || !Rep.ok()) {
        T.Failed++;
        T.Wrong.push_back("checkpoint failed: " + Rep.Error);
        if (!Sent)
          return;
      } else {
        T.Checkpoints++;
        T.InWindow += End <= Deadline;
        T.Ckpt.push_back(End - Start);
      }
      if (Trace)
        trace::record(SpClientCheckpoint, Start, End, 0, OpNo);
      continue;
    }
    int64_t A = static_cast<int64_t>(G.below(S.Accounts));
    if (G.unit() < TransferShare) {
      while (!lookupWritable(S, A))
        A = static_cast<int64_t>(G.below(S.Accounts));
      int64_t To;
      do
        To = static_cast<int64_t>(G.below(S.Accounts));
      while (To == A || !lookupWritable(S, To));
      int64_t Amt = 1 + static_cast<int64_t>(G.below(10));
      RelClient::Reply Rep;
      uint64_t Start = nowNs();
      bool Sent = Cli.transact(S.C.transfer(A, To, Amt), &Rep);
      uint64_t End = nowNs();
      T.Attempted++;
      if (!Sent) {
        T.Failed++;
        T.Wrong.push_back("transport failure on a transfer");
        return;
      }
      if (Rep.ok())
        T.Ok++;
      else if (Rep.aborted())
        T.Aborted++;
      else {
        T.Failed++;
        T.Wrong.push_back("transfer answered Error: " + Rep.Error);
        continue;
      }
      T.InWindow += End <= Deadline;
      T.Txn.push_back(End - Start);
      T.Op.push_back(End - Start);
      if (Trace)
        trace::record(SpClientTxn, Start, End, 0, OpNo);
      continue;
    }
    Tuple Key = S.C.key(A);
    uint64_t Start = nowNs();
    bool Sent = Cli.query(Key, All, Rows);
    uint64_t End = nowNs();
    T.Attempted++;
    if (!Sent) {
      T.Failed++;
      T.Wrong.push_back("point query failed");
      return;
    }
    if (Rows.size() != 1 || !Rows[0].extends(Key) ||
        !Rows[0].has(S.C.Bal) || Rows[0].get(S.C.Bal).asInt() < 0) {
      T.Failed++;
      T.Wrong.push_back("point query for account " + std::to_string(A) +
                        " returned " + std::to_string(Rows.size()) +
                        " rows, not exactly its own row");
      continue;
    }
    T.Queries++;
    T.InWindow += End <= Deadline;
    T.Query.push_back(End - Start);
    T.Op.push_back(End - Start);
    if (Trace)
      trace::record(SpClientQuery, Start, End, 0, OpNo);
  }
}

/// Runs one measured slice and writes its figures under \p Key.
void runSlice(const System &S, bool Lookup, uint64_t Seed, double Seconds,
              bool Trace, const std::string &Key, Report &R) {
  trace::On.store(Trace);
  std::vector<ConnTally> Tallies(4);
  std::atomic<uint64_t> OpCounter{0};
  uint64_t Start = nowNs();
  uint64_t Deadline = Start + static_cast<uint64_t>(Seconds * 1e9);
  std::vector<std::thread> Threads;
  for (int I = 0; I != 4; ++I)
    Threads.emplace_back([&, I] {
      if (Lookup)
        lookupConn(S, Seed, I, Deadline, Trace, OpCounter, Tallies[I]);
      else
        transferConn(S, Seed, I, Deadline, Trace, Tallies[I]);
    });
  for (std::thread &T : Threads)
    T.join();
  trace::On.store(false);
  ConnTally All;
  for (ConnTally &T : Tallies)
    merge(All, T);
  R.scalar(Key + "ops", static_cast<double>(All.InWindow));
  R.scalar(Key + "seconds", (Deadline - Start) / 1e9);
  R.scalar(Key + "attempted", static_cast<double>(All.Attempted));
  R.scalar(Key + "failed", static_cast<double>(All.Failed));
  R.scalar(Key + "aborted", static_cast<double>(All.Aborted));
  R.scalar(Key + "checkpoints", static_cast<double>(All.Checkpoints));
  R.samples(Key + "lat.txn") = std::move(All.Txn);
  R.samples(Key + "lat.query") = std::move(All.Query);
  R.samples(Key + "lat.ckpt") = std::move(All.Ckpt);
  R.samples(Key + "lat.op") = std::move(All.Op);
  size_t Shown = 0;
  for (const std::string &W : All.Wrong)
    if (Shown++ < 5)
      R.violation(W);
  if (All.Wrong.size() > 5)
    R.violation(std::to_string(All.Wrong.size() - 5) + " more failures");
}

/// The conservation proof over the wire: exactly N accounts (Size and
/// the rows of one query per `acct` value) and total balance N * 1000.
void checkConservation(const System &S, const std::string &When, Report &R) {
  std::atomic<int64_t> Rows{0}, Total{0};
  std::atomic<bool> Broken{false};
  std::vector<std::thread> Threads;
  for (int I = 0; I != 4; ++I)
    Threads.emplace_back([&, I] {
      RelClient Cli;
      if (!Cli.connect(S.port(), nullptr)) {
        Broken = true;
        return;
      }
      for (int64_t Acct = I; Acct < AcctsPerOwner; Acct += 4) {
        Tuple Pattern;
        Pattern.set(S.C.Acct, Value::ofInt(Acct));
        std::vector<Tuple> Got;
        if (!Cli.query(Pattern, S.Spec->columns(), Got)) {
          Broken = true;
          return;
        }
        int64_t Sum = 0;
        for (const Tuple &T : Got) {
          int64_t B = T.get(S.C.Bal).asInt();
          if (B < 0)
            Broken = true;
          Sum += B;
        }
        Rows += static_cast<int64_t>(Got.size());
        Total += Sum;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  uint64_t N = 0;
  RelClient Cli;
  bool SizeOk = Cli.connect(S.port(), nullptr) && Cli.size(N);
  std::printf("check %s: accounts %llu rows %lld total %lld\n", When.c_str(),
              static_cast<unsigned long long>(N),
              static_cast<long long>(Rows.load()),
              static_cast<long long>(Total.load()));
  if (Broken || !SizeOk || static_cast<int64_t>(N) != S.Accounts ||
      Rows != S.Accounts || Total != S.Accounts * InitialBalance)
    R.violation("conservation " + When + ": want " +
                std::to_string(S.Accounts) + " accounts totalling " +
                std::to_string(S.Accounts * InitialBalance) + ", got size " +
                std::to_string(N) + ", rows " + std::to_string(Rows.load()) +
                ", total " + std::to_string(Total.load()) +
                (Broken ? " (query failed or a balance went negative)" : ""));
}

bool stats(const System &S, RelClient::ServerStats &St) {
  RelClient Cli;
  return Cli.connect(S.port(), nullptr) && Cli.stats(St);
}

/// Ack implies durable across a checkpoint plus a log suffix: force one
/// checkpoint, commit a suffix of transfers after it, stop the server,
/// recover a fresh one from the same WAL + checkpoint, check again.
void checkRecovery(System &S, uint64_t Seed, Report &R) {
  RelClient Cli;
  RelClient::Reply Rep;
  uint64_t Start = nowNs();
  if (!Cli.connect(S.port(), nullptr) || !Cli.checkpoint(&Rep) || !Rep.ok()) {
    R.violation("final checkpoint failed: " + Rep.Error);
    return;
  }
  uint64_t End = nowNs();
  R.samples("lookup_ckpt.final.ckpt").push_back(End - Start);
  trace::record(SpClientCheckpoint, Start, End);
  Rng G(Seed, 300);
  for (int I = 0; I != 16; ++I) {
    int64_t From = static_cast<int64_t>(G.below(S.Accounts));
    int64_t To = (From + 1 + static_cast<int64_t>(G.below(S.Accounts - 1))) %
                 S.Accounts;
    if (!Cli.transact(S.C.transfer(From, To, 1), &Rep) ||
        Rep.St == wire::Status::Error) {
      R.violation("suffix transfer failed: " + Rep.Error);
      return;
    }
  }
  Cli.close();
  tearDown(S);
  std::string Err;
  if (!S.start(Err)) {
    R.violation("restart on the same WAL failed: " + Err);
    return;
  }
  R.scalar("recovery.replayed_txns",
           static_cast<double>(S.Server->recoveredTxns()));
  checkConservation(S, "after restart", R);
}

/// Server-side counter deltas across one measured stretch.
void recordStats(const System &S, const RelClient::ServerStats &Before,
                 const std::string &Key, Report &R) {
  RelClient::ServerStats After;
  if (!stats(S, After)) {
    R.violation("Stats request failed");
    return;
  }
  R.add(Key + "server.groups", double(After.Groups - Before.Groups));
  R.add(Key + "server.committed", double(After.Committed - Before.Committed));
  R.add(Key + "server.multi_groups",
        double(After.MultiTxGroups - Before.MultiTxGroups));
  R.add(Key + "server.syncs", double(After.Syncs - Before.Syncs));
  if (After.CheckpointFailures != Before.CheckpointFailures)
    R.violation(std::to_string(After.CheckpointFailures -
                               Before.CheckpointFailures) +
                " checkpoints failed on the server");
}

} // namespace

bool runServerWorkload(const Config &C, bool Lookup, Report &R,
                       double SliceSeconds, bool TraceSuite) {
  const std::string Name = Lookup ? "lookup_ckpt" : "transfer";
  const int64_t Accounts = Lookup ? (1 << 17) : (1 << 16);
  const std::string Dir = C.Dir + "/" + Name;
  R.scalar(Name + ".accounts", static_cast<double>(Accounts));
  // The end-to-end run sets up C.Setups fresh servers and measures an
  // equal share of the run on each; the trace suite uses one.
  int Setups = TraceSuite ? 1 : C.Setups;
  for (int I = 0; I != Setups; ++I) {
    System S;
    std::string Err;
    uint64_t T0 = nowNs();
    if (!setUp(S, Dir, Accounts, Err)) {
      R.violation(Name + " set-up failed: " + Err);
      tearDown(S);
      removeTree(Dir);
      return false;
    }
    R.samples(Name + ".setup").push_back(nowNs() - T0);
    RelClient::ServerStats Before;
    if (!stats(S, Before))
      R.violation("Stats request failed");
    uint64_t Seed = C.Seed * 64 + static_cast<uint64_t>(I);
    if (TraceSuite) {
      runSlice(S, Lookup, Seed, SliceSeconds, false, Name + ".untraced.", R);
      runSlice(S, Lookup, Seed + 1, SliceSeconds, true, Name + ".traced.", R);
      if (!Lookup) {
        // server.ping_rtt_us: blocking pings on an idle connection.
        RelClient Cli;
        if (!Cli.connect(S.port(), nullptr))
          R.violation("ping connection failed");
        for (int P = 0; P != 40 && Cli.connected(); ++P) {
          uint64_t Start = nowNs();
          bool Ok = Cli.ping();
          uint64_t End = nowNs();
          if (!Ok) {
            R.violation("ping failed");
            break;
          }
          R.samples("transfer.ping").push_back(End - Start);
          trace::record(SpClientPing, Start, End);
        }
      }
    } else {
      runSlice(S, Lookup, Seed, SliceSeconds / Setups, false,
               Name + ".run" + std::to_string(I) + ".", R);
    }
    recordStats(S, Before, Name + ".", R);
    checkConservation(S, "after the run", R);
    recordPeak(I, Name, R);
    if (Lookup && I + 1 == Setups)
      checkRecovery(S, C.Seed, R);
    tearDown(S);
    removeTree(Dir);
  }
  return R.correct();
}

} // namespace pb
