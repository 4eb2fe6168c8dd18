//===- concurrent/Epoch.cpp - Epoch-based read-side protection ------------===//

#include "concurrent/Epoch.h"

#include <cassert>
#include <mutex>
#include <thread>
#include <vector>

using namespace relc;

const char EpochManager::WildcardByte = 0;
const unsigned EpochWriterFence::OneIdx[1] = {0};

namespace {

/// Retire lists of threads that exited with entries still pending
/// their grace period; any thread's reclaim() adopts and drains them.
struct OrphanStore {
  std::mutex M;
  std::vector<void *> Heads; // EpochManager::Retired chains
  std::vector<size_t> Counts;
};

OrphanStore &orphans(void *Opaque) {
  return *static_cast<OrphanStore *>(Opaque);
}

} // namespace

/// Maximum read-side nesting depth per thread. Facade reads nest at
/// most two deep (a guarded read issuing another guarded read is
/// already forbidden for lock-discipline reasons); eight is headroom.
static constexpr uint32_t MaxNest = 8;

struct EpochManager::Handle {
  EpochManager *Mgr = nullptr;
  uint32_t SlotIndex = UINT32_MAX;
  uint32_t Depth = 0;
  const void *TagStack[MaxNest] = {};
  RetireList Retired;
  uint64_t RetireTicks = 0;

  ~Handle() {
    assert(Depth == 0 && "thread exited inside an epoch section");
    if (!Mgr)
      return;
    if (SlotIndex != UINT32_MAX)
      Mgr->releaseSlot(*this);
    if (Retired.Count != 0)
      Mgr->adoptOrphan(std::move(Retired));
  }
};

static thread_local EpochManager::Handle TLHandle;

EpochManager &EpochManager::global() {
  static EpochManager Mgr;
  return Mgr;
}

EpochManager::EpochManager() : OrphansOpaque(new OrphanStore) {}

EpochManager::~EpochManager() {
  // Static destruction: every well-behaved thread has exited (their
  // handles orphaned any pending entries), so grace periods no longer
  // apply — free everything outright.
  OrphanStore &O = orphans(OrphansOpaque);
  for (void *HeadOpaque : O.Heads) {
    Retired *R = static_cast<Retired *>(HeadOpaque);
    while (R) {
      Retired *Next = R->Next;
      R->Del(R->Ptr);
      delete R;
      R = Next;
    }
  }
  delete &O;
}

EpochManager::Handle &EpochManager::handle() {
  Handle &H = TLHandle;
  assert((!H.Mgr || H.Mgr == this) && "one EpochManager per process");
  H.Mgr = this;
  return H;
}

EpochManager::Slot &EpochManager::claimSlot(Handle &H) {
  if (H.SlotIndex != UINT32_MAX)
    return Slots[H.SlotIndex];
  for (size_t I = 0; I != MaxParticipants; ++I) {
    uint32_t Expected = 0;
    if (Slots[I].Claimed.compare_exchange_strong(Expected, 1,
                                                 std::memory_order_acq_rel)) {
      H.SlotIndex = static_cast<uint32_t>(I);
      // Grow the high-water mark so fences scan this slot.
      size_t HW = HighWater.load(std::memory_order_relaxed);
      while (HW < I + 1 && !HighWater.compare_exchange_weak(
                               HW, I + 1, std::memory_order_acq_rel)) {
      }
      return Slots[I];
    }
  }
  assert(false && "more than MaxParticipants concurrent epoch threads");
  // Unreachable with assertions on (this repo keeps them on in every
  // build type); fall back to sharing slot 0, which is conservative
  // for fences but racy for the sequence wait — still better than UB.
  H.SlotIndex = 0;
  return Slots[0];
}

void EpochManager::releaseSlot(Handle &H) {
  Slot &S = Slots[H.SlotIndex];
  assert((S.State.load(std::memory_order_relaxed) & 1) == 0 &&
         "releasing an active slot");
  S.Tag.store(nullptr, std::memory_order_relaxed);
  S.Claimed.store(0, std::memory_order_release);
  H.SlotIndex = UINT32_MAX;
}

void EpochManager::enter(const void *Tag) {
  Handle &H = handle();
  Slot &S = claimSlot(H);
  const void *T = Tag ? Tag : wildcardTag();
  assert(H.Depth < MaxNest && "epoch sections nested too deep");
  H.TagStack[H.Depth] = T;
  if (H.Depth++ != 0) {
    // Nested section: widen the published tag to the wildcard when it
    // differs, so fences on the inner tag wait for this thread too.
    // seq_cst store: pairs with the fence's gate-store/tag-load the
    // same way the outer State store pairs with gate-store/State-load.
    if (S.Tag.load(std::memory_order_relaxed) != T)
      S.Tag.store(wildcardTag(), std::memory_order_seq_cst);
    return;
  }
  S.Epoch.store(GlobalEpoch.load(std::memory_order_acquire),
                std::memory_order_relaxed);
  S.Tag.store(T, std::memory_order_relaxed);
  // Publish "active": odd state. seq_cst is the reader half of the
  // Dekker handshake — the subsequent EpochGate load (at the call
  // site) must not be reordered before this store.
  uint64_t St = S.State.load(std::memory_order_relaxed);
  S.State.store(St + 1, std::memory_order_seq_cst);
}

void EpochManager::exit() {
  Handle &H = handle();
  assert(H.Depth != 0 && "exit() without enter()");
  Slot &S = Slots[H.SlotIndex];
  if (--H.Depth != 0) {
    // Restore the outer tag (narrowing is safe: the inner data is no
    // longer being read, so fences may skip this slot again).
    S.Tag.store(H.TagStack[H.Depth - 1], std::memory_order_seq_cst);
    return;
  }
  uint64_t St = S.State.load(std::memory_order_relaxed);
  assert((St & 1) == 1 && "slot not active on final exit");
  // Release pairs with the fence's acquire wait: everything this
  // section read happened-before the writer's mutation.
  S.State.store(St + 1, std::memory_order_release);
}

bool EpochManager::inSection() const {
  return TLHandle.Mgr == this && TLHandle.Depth != 0;
}

void EpochManager::synchronize(const void *const *Tags, size_t NumTags) {
  size_t HW = HighWater.load(std::memory_order_acquire);
  for (size_t I = 0; I != HW; ++I) {
    Slot &S = Slots[I];
    // seq_cst: the writer half of the Dekker handshake (see Epoch.h).
    uint64_t St = S.State.load(std::memory_order_seq_cst);
    if ((St & 1) == 0)
      continue;
    const void *T = S.Tag.load(std::memory_order_seq_cst);
    bool Match = NumTags == 0 || T == wildcardTag();
    for (size_t J = 0; !Match && J != NumTags; ++J)
      Match = T == Tags[J];
    if (!Match)
      continue;
    // Wait for *this* section to end. A later section on the same slot
    // bumps State past St; it either saw the raised gate (and fell
    // back to the stripe lock) or reads an unrelated tag.
    unsigned Spins = 0;
    while (S.State.load(std::memory_order_acquire) == St) {
      if (++Spins > 64)
        std::this_thread::yield();
    }
  }
}

void EpochManager::retire(void *P, void (*Del)(void *), bool Eager) {
  Handle &H = handle();
  Retired *R = new Retired{P, Del, globalEpoch(), nullptr};
  *H.Retired.Tail = R;
  H.Retired.Tail = &R->Next;
  ++H.Retired.Count;
  // Amortized housekeeping: advance and reclaim every 64 retires (or
  // now, for eager retires), but never while this thread sits inside
  // a section (its pinned epoch may not reflect what it still
  // references).
  bool Due = (++H.RetireTicks & 63) == 0 || Eager;
  if (H.Depth == 0 && Due) {
    tryAdvance();
    tryAdvance();
    reclaim();
  }
}

bool EpochManager::tryAdvance() {
  uint64_t E = GlobalEpoch.load(std::memory_order_acquire);
  size_t HW = HighWater.load(std::memory_order_acquire);
  for (size_t I = 0; I != HW; ++I) {
    Slot &S = Slots[I];
    if ((S.State.load(std::memory_order_acquire) & 1) == 0)
      continue;
    if (S.Epoch.load(std::memory_order_acquire) < E)
      return false; // a straggler still pins the previous epoch
  }
  return GlobalEpoch.compare_exchange_strong(E, E + 1,
                                             std::memory_order_acq_rel);
}

size_t EpochManager::reclaimList(RetireList &L, uint64_t SafeEpoch) {
  // FIFO walk from the head: entries are in retire order, and epochs
  // along the list are monotone, so stop at the first unsafe entry.
  // Freeing in retire order preserves parent-before-child destruction
  // (see the RetireList comment in Epoch.h).
  size_t Freed = 0;
  Retired *R = L.Head;
  while (R && R->Epoch <= SafeEpoch) {
    Retired *Next = R->Next;
    R->Del(R->Ptr);
    delete R;
    R = Next;
    ++Freed;
  }
  L.Head = R;
  if (!R)
    L.Tail = &L.Head;
  L.Count -= Freed;
  return Freed;
}

size_t EpochManager::reclaim() {
  uint64_t G = globalEpoch();
  if (G < 2)
    return 0;
  uint64_t Safe = G - 2;
  Handle &H = handle();
  size_t Freed = reclaimList(H.Retired, Safe);

  // Adopt orphaned lists from exited threads; put back what is still
  // in its grace period.
  OrphanStore &O = orphans(OrphansOpaque);
  std::vector<void *> Taken;
  {
    std::lock_guard<std::mutex> Lock(O.M);
    Taken.swap(O.Heads);
    O.Counts.clear();
  }
  for (void *HeadOpaque : Taken) {
    RetireList L;
    L.Head = static_cast<Retired *>(HeadOpaque);
    L.Tail = &L.Head; // tail unused for adopted lists
    L.Count = 0;
    for (Retired *R = L.Head; R; R = R->Next)
      ++L.Count;
    Freed += reclaimList(L, Safe);
    if (L.Head) {
      std::lock_guard<std::mutex> Lock(O.M);
      O.Heads.push_back(L.Head);
      O.Counts.push_back(L.Count);
    }
  }
  return Freed;
}

void EpochManager::flush() {
  // Two advances age every retired entry past its grace period when no
  // reader pins an older epoch; loop in case concurrent retires land.
  for (int Round = 0; Round != 4; ++Round) {
    tryAdvance();
    tryAdvance();
    if (reclaim() == 0 && pendingRetired() == 0)
      return;
  }
}

size_t EpochManager::pendingRetired() const {
  size_t N = TLHandle.Mgr == this ? TLHandle.Retired.Count : 0;
  OrphanStore &O = orphans(OrphansOpaque);
  std::lock_guard<std::mutex> Lock(O.M);
  for (size_t C : O.Counts)
    N += C;
  return N;
}

void EpochManager::adoptOrphan(RetireList &&L) {
  if (!L.Head)
    return;
  OrphanStore &O = orphans(OrphansOpaque);
  std::lock_guard<std::mutex> Lock(O.M);
  O.Heads.push_back(L.Head);
  O.Counts.push_back(L.Count);
}

//===--------------------------------------------------------------------===//
// EpochWriterFence
//===--------------------------------------------------------------------===//

EpochWriterFence::EpochWriterFence(EpochGate *Gates, const unsigned *Idx,
                                   size_t N)
    : Gates(Gates), Idx(Idx), N(N) {
  // seq_cst stores: the writer half of the Dekker handshake. The
  // exclusive stripe locks (held by contract) serialize fences on the
  // same gate, so a plain store of 1 cannot clobber a peer.
  for (size_t I = 0; I != N; ++I)
    Gates[Idx[I]].Writer.store(1, std::memory_order_seq_cst);
  // Every gate is raised before any wait, so waiting chunk by chunk
  // drains exactly the sections one all-tag wait would: a section on
  // a later chunk's gate that starts meanwhile sees its gate raised.
  constexpr size_t Chunk = 64;
  const void *Tags[Chunk];
  for (size_t Base = 0; Base < N; Base += Chunk) {
    size_t M = N - Base < Chunk ? N - Base : Chunk;
    for (size_t I = 0; I != M; ++I)
      Tags[I] = &Gates[Idx[Base + I]];
    EpochManager::global().synchronize(Tags, M);
  }
}

EpochWriterFence::~EpochWriterFence() {
  for (size_t I = N; I != 0; --I)
    // Release: the next wait-free reader's gate load (seq_cst implies
    // acquire) observes every write of the fenced mutation.
    Gates[Idx[I - 1]].Writer.store(0, std::memory_order_release);
}
