//===- perfbench/src/Common.cpp - Shared benchmark plumbing ---------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <new>

namespace pb {

//===----------------------------------------------------------------------===//
// Allocation counting. A thread-local counter keeps the hook free of
// shared read-modify-writes, so it does not distort the 4-thread loops
// it runs under; the probes read per-thread deltas.
//===----------------------------------------------------------------------===//

static thread_local uint64_t AllocCount = 0;

uint64_t threadAllocs() { return AllocCount; }

} // namespace pb

static void *countedAlloc(size_t Sz) {
  ++pb::AllocCount;
  if (void *P = std::malloc(Sz ? Sz : 1))
    return P;
  throw std::bad_alloc();
}

static void *countedAlignedAlloc(size_t Sz, std::align_val_t Al) {
  ++pb::AllocCount;
  size_t Align = static_cast<size_t>(Al);
  size_t Rounded = (Sz + Align - 1) / Align * Align;
  if (void *P = std::aligned_alloc(Align, Rounded ? Rounded : Align))
    return P;
  throw std::bad_alloc();
}

void *operator new(size_t Sz) { return countedAlloc(Sz); }
void *operator new[](size_t Sz) { return countedAlloc(Sz); }
void *operator new(size_t Sz, std::align_val_t Al) {
  return countedAlignedAlloc(Sz, Al);
}
void *operator new[](size_t Sz, std::align_val_t Al) {
  return countedAlignedAlloc(Sz, Al);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }
void operator delete[](void *P, size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, size_t, std::align_val_t) noexcept {
  std::free(P);
}

namespace pb {

const char *spanName(uint32_t N) {
  static const char *const Names[SpNumNames] = {
      "client.txn",         "client.query",        "client.checkpoint",
      "client.ping",        "gc.txn",              "gc.submit",
      "gc.hook",            "wal.append",          "wal.sync",
      "conc.query",         "conc.update",         "conc.upsert",
      "conc.transact",      "conc.churn",          "conc.remove",
      "conc.insert",        "conc.scan",           "conc.snapshot",
      "conc.cow_write",     "rt.query",            "rt.upsert",
      "rt.churn",           "gen.query",           "gen.update",
      "gen.upsert",         "gen.transact",        "gen.churn",
      "gen.remove",         "gen.insert",
      "gen.scan",           "genseq.query",        "genseq.upsert"};
  return N < SpNumNames ? Names[N] : "unknown";
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

namespace trace {

std::atomic<bool> On{false};

namespace {
std::atomic<uint64_t> NextId{1};
std::atomic<uint32_t> NextThread{1};
std::mutex BuffersMu;
/// Owned here so spans outlive the threads that recorded them.
std::vector<std::unique_ptr<std::vector<Span>>> Buffers;

struct ThreadBuf {
  std::vector<Span> *Spans = nullptr;
  uint32_t Thread = 0;
  std::vector<Span> &get() {
    if (!Spans) {
      std::lock_guard<std::mutex> Lock(BuffersMu);
      Buffers.push_back(std::make_unique<std::vector<Span>>());
      Spans = Buffers.back().get();
      Spans->reserve(1 << 14);
      Thread = NextThread.fetch_add(1, std::memory_order_relaxed);
    }
    return *Spans;
  }
};
thread_local ThreadBuf Local;
} // namespace

uint64_t newId() { return NextId.fetch_add(1, std::memory_order_relaxed); }

uint64_t record(uint32_t Name, uint64_t Start, uint64_t End, uint64_t Parent,
                uint64_t Req, uint64_t Arg, uint64_t Id) {
  if (!Id)
    Id = newId();
  std::vector<Span> &B = Local.get();
  Span S;
  S.Id = Id;
  S.Parent = Parent;
  S.Req = Req;
  S.Start = Start;
  S.End = End;
  S.Arg = Arg;
  S.Name = Name;
  S.Thread = Local.Thread;
  B.push_back(S);
  return Id;
}

bool dump(const std::string &Path) {
  std::lock_guard<std::mutex> Lock(BuffersMu);
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  bool Ok = true;
  for (const auto &B : Buffers) {
    for (const Span &S : *B) {
      uint64_t Rec[6] = {S.Id, S.Parent, S.Req, S.Start, S.End, S.Arg};
      uint32_t Tail[2] = {S.Name, S.Thread};
      Ok &= std::fwrite(Rec, sizeof(Rec), 1, F) == 1;
      Ok &= std::fwrite(Tail, sizeof(Tail), 1, F) == 1;
    }
    B->clear();
    B->shrink_to_fit();
  }
  Ok &= std::fclose(F) == 0;
  return Ok;
}

} // namespace trace

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

void Report::violation(const std::string &Why) {
  std::fprintf(stderr, "perfbench: CORRECTNESS VIOLATION: %s\n", Why.c_str());
  Violations.push_back(Why);
}

static std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

bool Report::write(const std::string &Dir) const {
  bool Ok = true;
  std::string Json = "{\n\"scalars\": {";
  const char *Sep = "";
  for (const auto &[K, V] : Scalars) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    Json += Sep + jsonString(K) + ": " + Buf;
    Sep = ",\n";
  }
  Json += "},\n\"texts\": {";
  Sep = "";
  for (const auto &[K, V] : Texts) {
    Json += Sep + jsonString(K) + ": " + jsonString(V);
    Sep = ",\n";
  }
  Json += "},\n\"violations\": [";
  Sep = "";
  for (const std::string &V : Violations) {
    Json += Sep + jsonString(V);
    Sep = ", ";
  }
  Json += "],\n\"samples\": {";
  Sep = "";
  unsigned FileNo = 0;
  for (const auto &[K, V] : Samples) {
    std::string Name = "samples" + std::to_string(FileNo++) + ".u64";
    std::FILE *F = std::fopen((Dir + "/" + Name).c_str(), "wb");
    if (!F)
      return false;
    if (!V.empty())
      Ok &= std::fwrite(V.data(), sizeof(uint64_t), V.size(), F) == V.size();
    Ok &= std::fclose(F) == 0;
    Json += Sep + jsonString(K) + ": " + jsonString(Name);
    Sep = ",\n";
  }
  Json += "}\n}\n";
  std::FILE *F = std::fopen((Dir + "/report.json").c_str(), "wb");
  if (!F)
    return false;
  Ok &= std::fwrite(Json.data(), 1, Json.size(), F) == Json.size();
  Ok &= std::fclose(F) == 0;
  return Ok;
}

void recordPeak(int I, const std::string &Name, Report &R) {
  if (I != 0)
    return;
  struct rusage Ru;
  getrusage(RUSAGE_SELF, &Ru);
  R.scalar(Name + ".peak_rss_kb", static_cast<double>(Ru.ru_maxrss));
}

bool makeDirs(const std::string &Path) {
  std::error_code Ec;
  std::filesystem::create_directories(Path, Ec);
  return !Ec;
}

void removeTree(const std::string &Path) {
  std::error_code Ec;
  std::filesystem::remove_all(Path, Ec);
}

} // namespace pb
