//===- perfbench/src/Bench.h - Shared benchmark plumbing --------*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Plumbing shared by the repository benchmark's workloads: a seeded
/// generator, the clock, the span tracer (spans are recorded by the
/// benchmark around its own calls into each layer, kept in memory and
/// dumped once at exit), the raw-result report that run.py summarizes,
/// and the per-thread allocation counter behind concurrent.allocs_per_op.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

//===----------------------------------------------------------------------===//
// Time and randomness
//===----------------------------------------------------------------------===//

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64: every workload stream derives from (--seed, stream id).
class Rng {
public:
  Rng(uint64_t Seed, uint64_t Stream)
      : S(Seed * 0x9E3779B97F4A7C15ull + Stream * 0xD1B54A32D192ED03ull + 1) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  uint64_t below(uint64_t N) { return next() % N; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
  uint64_t S;
};

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// Span names; run.py's summarizer reads them from the dump by string.
enum SpanName : uint32_t {
  SpClientTxn,        ///< RelClient transfer: send -> durable reply
  SpClientQuery,      ///< RelClient::query point lookup
  SpClientCheckpoint, ///< RelClient::checkpoint round trip
  SpClientPing,       ///< RelClient::ping on an idle connection
  SpGcTxn,            ///< GroupCommit replay: submit -> Done
  SpGcSubmit,         ///< GroupCommit::submit call (child of SpGcTxn)
  SpGcHook,           ///< commit hook: encodeRedo + Wal::append
  SpWalAppend,        ///< Wal::append of one redo record
  SpWalSync,          ///< Wal::sync
  SpConcQuery,        ///< ConcurrentRelation::query, routed
  SpConcUpdate,       ///< ConcurrentRelation::update
  SpConcUpsert,       ///< ConcurrentRelation::upsert
  SpConcTransact,     ///< ConcurrentRelation::transact, two keys
  SpConcChurn,        ///< remove + insert of one key
  SpConcRemove,       ///< ConcurrentRelation::remove (child of churn)
  SpConcInsert,       ///< ConcurrentRelation::insert (child of churn)
  SpConcScan,         ///< ConcurrentRelation::query by_state; Arg = rows
  SpConcSnapshot,     ///< ConcurrentRelation::snapshot
  SpConcCowWrite,     ///< first upsert into a shard pinned by a snapshot
  SpRtQuery,          ///< SynthesizedRelation::query
  SpRtUpsert,         ///< SynthesizedRelation::upsert
  SpRtChurn,          ///< SynthesizedRelation remove + insert
  SpGenQuery,         ///< generated facade routed lookup
  SpGenUpdate,        ///< generated facade cpu update
  SpGenUpsert,        ///< generated facade upsert
  SpGenTransact,      ///< generated facade two-key transaction
  SpGenChurn,         ///< generated facade remove + insert
  SpGenRemove,        ///< generated remove_by_ns_pid (child of churn)
  SpGenInsert,        ///< generated insert (child of churn)
  SpGenScan,          ///< generated facade by_state; Arg = rows
  SpGenSeqQuery,      ///< non-concurrent generated lookup_by_ns_pid
  SpGenSeqUpsert,     ///< non-concurrent generated upsert_by_ns_pid
  SpNumNames
};
const char *spanName(uint32_t N);

struct Span {
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 = root
  uint64_t Req = 0;    ///< request id shared by the spans of one request
  uint64_t Start = 0;
  uint64_t End = 0;
  uint64_t Arg = 0; ///< rows returned, bytes written, ...
  uint32_t Name = 0;
  uint32_t Thread = 0;
};

/// Global on/off switch plus per-thread in-memory span buffers.
namespace trace {
extern std::atomic<bool> On;
inline bool on() { return On.load(std::memory_order_relaxed); }
/// A fresh span id (never 0).
uint64_t newId();
/// Appends a finished span to this thread's buffer; returns its id
/// (\p Id, or a fresh one when 0).
uint64_t record(uint32_t Name, uint64_t Start, uint64_t End,
                uint64_t Parent = 0, uint64_t Req = 0, uint64_t Arg = 0,
                uint64_t Id = 0);
/// Writes every thread's spans (binary records, see summarize.py) and
/// drops them. Call with no traced thread running.
bool dump(const std::string &Path);
} // namespace trace

//===----------------------------------------------------------------------===//
// Allocation counting (global operator new hook in Common.cpp)
//===----------------------------------------------------------------------===//

/// operator new calls made by the calling thread so far.
uint64_t threadAllocs();

//===----------------------------------------------------------------------===//
// Raw report
//===----------------------------------------------------------------------===//

/// Everything a workload measured, as run.py reads it: scalars and
/// texts into report.json, each latency sample set (nanoseconds) into
/// its own little-endian u64 file next to it.
class Report {
public:
  void scalar(const std::string &K, double V) { Scalars[K] = V; }
  void add(const std::string &K, double V) { Scalars[K] += V; }
  void text(const std::string &K, const std::string &V) { Texts[K] = V; }
  std::vector<uint64_t> &samples(const std::string &K) { return Samples[K]; }
  /// A correctness violation: the run fails, with \p Why in the output.
  void violation(const std::string &Why);
  bool correct() const { return Violations.empty(); }
  bool write(const std::string &Dir) const;

private:
  std::map<std::string, double> Scalars;
  std::map<std::string, std::string> Texts;
  std::map<std::string, std::vector<uint64_t>> Samples;
  std::vector<std::string> Violations;
};

/// Command-line configuration of one run.
struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Scratch directory inside the checkout (WAL, checkpoints, dumps).
  std::string Dir;
  /// Set-ups per end-to-end run, each measured for Seconds / Setups;
  /// setup_s is their median.
  int Setups = 4;
};

/// Records peak_rss_mb's reading after set-up \p I of workload \p Name:
/// the process's resident high-water mark after the first set-up's
/// slice and checks, before any set-up has been torn down (a stopped
/// server or destroyed relation leaves memory resident that a process
/// running the workload once never holds).
void recordPeak(int I, const std::string &Name, Report &R);

/// Creates \p Path (and parents); false on failure.
bool makeDirs(const std::string &Path);
/// Removes \p Path recursively (best effort).
void removeTree(const std::string &Path);

//===----------------------------------------------------------------------===//
// Workloads and probes
//===----------------------------------------------------------------------===//

/// Runs one workload. End-to-end (\p TraceSuite false): C.Setups fresh
/// set-ups, each measured for SliceSeconds / C.Setups, each followed by
/// the correctness checks. Trace suite: one set-up, an untraced and a
/// traced slice of SliceSeconds each, and the layer measurements that
/// need this workload's system. False when a check failed.
bool runServerWorkload(const Config &C, bool Lookup, Report &R,
                       double SliceSeconds, bool TraceSuite);
bool runEngineWorkload(const Config &C, bool Compiled, Report &R,
                       double SliceSeconds, bool TraceSuite);

/// Layer-isolated replays that need no workload system: the wire
/// codec, the GroupCommit + Wal replay of the transfer stream, Wal
/// append+sync.
void runServerProbes(const Config &C, Report &R, double Seconds);

} // namespace pb

#endif // PERFBENCH_BENCH_H
