//===- perfbench/src/Probes.cpp - Layer-isolated server replays -----------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
//
// The server layers measured without sockets, as the trace suite's
// layer-isolated replays:
//
//   wire codec   encode + decode of one transfer frame and one query
//                reply, with wire::ByteWriter / ByteReader;
//   GroupCommit  the transfer stream (64k accounts, 4 submitters with 16
//                transactions in flight each) submitted straight into
//                GroupCommit over a ConcurrentRelation + Wal, with the
//                commit hook installed the way RelServer::start installs
//                it, read through commitStats() and durableBytes();
//   Wal          append of one workload-sized redo record plus sync.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "decomp/Builder.h"
#include "server/GroupCommit.h"
#include "server/Wal.h"
#include "server/Wire.h"

#include <condition_variable>
#include <limits>
#include <mutex>
#include <thread>
#include <unordered_map>

using namespace relc;

namespace pb {
namespace {

constexpr int64_t Accounts = 1 << 16;
constexpr int64_t AcctsPerOwner = 64;

Decomposition accountDecomp(const RelSpecRef &Spec) {
  DecompBuilder B(Spec);
  NodeId U = B.addNode("u", "owner, acct", B.unit("balance"));
  NodeId Y = B.addNode("y", "owner", B.map("acct", DsKind::HashTable, U));
  B.addNode("x", "", B.map("owner", DsKind::HashTable, Y));
  return B.build();
}

Tuple accountKey(int64_t A) {
  Tuple T;
  T.set(0, Value::ofInt(A / AcctsPerOwner));
  T.set(1, Value::ofInt(A % AcctsPerOwner));
  return T;
}

/// The engine op RelServer::toTxOp compiles a wire `add` into.
TxOp addOp(int64_t A, int64_t Delta, int64_t Floor) {
  return TxOp::upsertChecked(
      accountKey(A), [Delta, Floor](const BindingFrame *F, Tuple &V) {
        if (!F || !F->get(2).isInt())
          return false;
        int64_t Next = F->get(2).asInt() + Delta;
        if (Floor != std::numeric_limits<int64_t>::min() && Next < Floor)
          return false;
        V.set(2, Value::ofInt(Next));
        return true;
      });
}

void wireCodec(Report &R) {
  wire::WireTxOp From = wire::WireTxOp::add(accountKey(12345), 2, -7, 0);
  wire::WireTxOp To = wire::WireTxOp::add(accountKey(54321), 2, 7);
  Tuple Row = accountKey(777);
  Row.set(2, Value::ofInt(1000));
  const int N = 200000;
  uint64_t Bad = 0;
  uint64_t Start = nowNs();
  for (int I = 0; I != N; ++I) {
    wire::ByteWriter W;
    W.u8(static_cast<uint8_t>(wire::Op::Transact));
    W.u64(static_cast<uint64_t>(I));
    W.u32(2);
    W.txOp(From);
    W.txOp(To);
    wire::ByteReader Rd(W.data());
    uint8_t Op = 0;
    uint64_t Req = 0;
    uint32_t Count = 0;
    wire::WireTxOp A, B;
    if (!Rd.u8(Op) || !Rd.u64(Req) || !Rd.u32(Count) || !Rd.txOp(A, 3) ||
        !Rd.txOp(B, 3) || !(A == From) || !(B == To) || Req != uint64_t(I))
      ++Bad;
    wire::ByteWriter Reply;
    Reply.u8(static_cast<uint8_t>(wire::Status::Ok));
    Reply.u64(static_cast<uint64_t>(I));
    Reply.u32(1);
    Reply.tuple(Row);
    wire::ByteReader RRd(Reply.data());
    uint8_t St = 0;
    uint32_t Rows = 0;
    Tuple Got;
    if (!RRd.u8(St) || !RRd.u64(Req) || !RRd.u32(Rows) || !RRd.tuple(Got) ||
        Got != Row)
      ++Bad;
  }
  R.scalar("wire.codec_ns", double(nowNs() - Start) / N);
  if (Bad)
    R.violation("wire codec round trip mismatched " + std::to_string(Bad) +
                " times");
}

/// Submitter-side completion tracking for one window of transactions.
struct Window {
  std::mutex Mu;
  std::condition_variable Cv;
  int InFlight = 0;
};

void groupCommitReplay(const std::string &Dir, uint64_t Seed, double Seconds,
                       Report &R) {
  RelSpecRef Spec = RelSpec::make("account", {"owner", "acct", "balance"},
                                  {{"owner, acct", "balance"}});
  ConcurrentOptions CO;
  CO.NumShards = 8;
  ConcurrentRelation Rel(accountDecomp(Spec), CO);
  for (int64_t A = 0; A != Accounts; ++A) {
    Tuple T = accountKey(A);
    T.set(2, Value::ofInt(1000));
    Rel.insert(T);
  }
  Wal Log(Dir + "/replay.wal");
  std::string Err;
  if (!Log.open(&Err)) {
    R.violation("replay wal: " + Err);
    return;
  }
  // RelServer::start's hook, with its two steps timed. The hook runs on
  // the committer thread; the Done callback of the same transaction
  // (same thread, later) picks the hook's times up by ticket.
  std::unordered_map<uint64_t, std::pair<uint64_t, uint64_t>> HookTimes;
  std::vector<uint8_t> SampleRedo;
  Rel.setCommitHook([&](uint64_t Ticket, const std::vector<TxOp> &Redo) {
    uint64_t T0 = nowNs();
    std::vector<uint8_t> Payload = wire::encodeRedo(Redo);
    uint64_t T1 = nowNs();
    Log.append(Ticket, Payload.data(), Payload.size());
    uint64_t T2 = nowNs();
    HookTimes[Ticket] = {T0, T2};
    if (trace::on())
      trace::record(SpWalAppend, T1, T2, 0, Ticket, Payload.size());
    if (SampleRedo.empty())
      SampleRedo = std::move(Payload);
  });
  GroupCommit Gc(Rel, &Log);
  Gc.start();
  GroupCommitStats S0 = Gc.stats();
  size_t Bytes0 = Log.durableBytes();

  std::vector<std::vector<uint64_t>> Commit(4), Wait(4);
  std::vector<Window> Windows(4);
  uint64_t Deadline = nowNs() + static_cast<uint64_t>(Seconds * 1e9);
  std::vector<std::thread> Submitters;
  for (int W = 0; W != 4; ++W)
    Submitters.emplace_back([&, W] {
      Rng G(Seed, 400 + W);
      Window &Win = Windows[W];
      while (nowNs() < Deadline) {
        {
          std::unique_lock<std::mutex> Lock(Win.Mu);
          Win.Cv.wait(Lock, [&] { return Win.InFlight < 16; });
          ++Win.InFlight;
        }
        int64_t From = static_cast<int64_t>(G.below(Accounts));
        int64_t To = (From + 1 + static_cast<int64_t>(G.below(Accounts - 1))) %
                     Accounts;
        int64_t Amt = 1 + static_cast<int64_t>(G.below(10));
        std::vector<TxOp> Ops;
        Ops.push_back(addOp(From, -Amt, 0));
        Ops.push_back(addOp(To, Amt, std::numeric_limits<int64_t>::min()));
        uint64_t TxnId = trace::newId();
        uint64_t Start = nowNs();
        Gc.submit(std::move(Ops), [&, W, Start, TxnId](const TxResult &Res,
                                                       bool) {
          uint64_t End = nowNs();
          auto It = HookTimes.find(Res.Ticket);
          if (Res.Committed && It != HookTimes.end()) {
            Wait[W].push_back(It->second.first - Start);
            if (trace::on())
              trace::record(SpGcHook, It->second.first, It->second.second,
                            TxnId, Res.Ticket);
            HookTimes.erase(It);
          }
          Commit[W].push_back(End - Start);
          if (trace::on())
            trace::record(SpGcTxn, Start, End, 0, Res.Ticket, 0, TxnId);
          std::lock_guard<std::mutex> Lock(Windows[W].Mu);
          --Windows[W].InFlight;
          Windows[W].Cv.notify_one();
        });
        if (trace::on())
          trace::record(SpGcSubmit, Start, nowNs(), TxnId);
      }
      std::unique_lock<std::mutex> Lock(Win.Mu);
      Win.Cv.wait(Lock, [&] { return Win.InFlight == 0; });
    });
  for (std::thread &T : Submitters)
    T.join();
  GroupCommitStats S1 = Gc.stats();
  size_t Bytes1 = Log.durableBytes();
  Gc.stop();
  Rel.setCommitHook(nullptr);

  for (int W = 0; W != 4; ++W) {
    std::vector<uint64_t> &C = R.samples("groupcommit.commit");
    C.insert(C.end(), Commit[W].begin(), Commit[W].end());
    std::vector<uint64_t> &Wt = R.samples("groupcommit.wait");
    Wt.insert(Wt.end(), Wait[W].begin(), Wait[W].end());
  }
  R.scalar("groupcommit.committed", double(S1.Committed - S0.Committed));
  R.scalar("groupcommit.aborted", double(S1.Aborted - S0.Aborted));
  R.scalar("groupcommit.groups", double(S1.Groups - S0.Groups));
  R.scalar("groupcommit.multi_groups",
           double(S1.MultiTxGroups - S0.MultiTxGroups));
  R.scalar("groupcommit.syncs", double(S1.Syncs - S0.Syncs));
  R.scalar("groupcommit.durable_bytes", double(Bytes1 - Bytes0));
  if (S1.SyncFailures != S0.SyncFailures)
    R.violation("wal sync failed during the GroupCommit replay");

  // Wal::append + sync of one redo record of this workload's size.
  for (int I = 0; I != 200 && !SampleRedo.empty(); ++I) {
    uint64_t Start = nowNs();
    bool Ok = Log.append(1u << 30 | I, SampleRedo.data(), SampleRedo.size());
    uint64_t Mid = nowNs();
    Ok = Log.sync() && Ok;
    uint64_t End = nowNs();
    if (!Ok) {
      R.violation("wal append/sync failed");
      break;
    }
    R.samples("wal.sync").push_back(End - Start);
    trace::record(SpWalAppend, Start, Mid, 0, 0, SampleRedo.size());
    trace::record(SpWalSync, Mid, End);
  }
  Log.close();
}

} // namespace

void runServerProbes(const Config &C, Report &R, double Seconds) {
  std::string Dir = C.Dir + "/probes";
  makeDirs(Dir);
  trace::On.store(true);
  wireCodec(R);
  groupCommitReplay(Dir, C.Seed, Seconds, R);
  trace::On.store(false);
  removeTree(Dir);
}

} // namespace pb
