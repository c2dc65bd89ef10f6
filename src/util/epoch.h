// Epoch-based reclamation for read-mostly serving structures.
//
// The serving problem: a resize replaces a multi-megabyte table while any
// number of readers are probing it lock-free. Readers cannot take a lock per
// probe (the batched hot path is the whole point), and the writer cannot
// free the old table while some reader still walks it. EpochDomain solves
// this with the classic QSBR/EBR recipe:
//
//   * Readers Pin() the domain before loading a protected pointer and hold
//     the returned Guard for the duration of the access (one pin per query
//     batch, so the pin cost is amortized over thousands of probes).
//   * Writers publish a replacement via TableHandle::Publish (an atomic
//     pointer swap with release semantics) and Retire() the old object into
//     the domain instead of deleting it.
//   * Retired objects are freed only once every reader that could possibly
//     have observed them has unpinned (its slot epoch advanced past the
//     retirement epoch, or went quiescent).
//
// Safety argument, in brief: a reader publishes its epoch BEFORE loading the
// protected pointer (seq_cst store + fence), and a writer retires an object
// only AFTER swapping it out (seq_cst exchange). So if a reader holds a
// retired object, the reader's slot was already visible with epoch <= the
// retirement epoch when the writer scans slots — and reclamation frees an
// object only when every visible slot epoch is strictly greater.
#ifndef CCF_UTIL_EPOCH_H_
#define CCF_UTIL_EPOCH_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "util/status.h"

namespace ccf {

/// \brief A reclamation domain: reader pin/unpin plus deferred retirement.
///
/// One domain typically guards one structure (e.g. a ShardedCcf guards all
/// its shard tables with a single domain). Pin/unpin are wait-free apart
/// from the (bounded, contention-free in practice) slot claim; Retire and
/// TryReclaim take a small mutex and are writer-side only.
class EpochDomain {
 public:
  /// Concurrent pinned readers supported; Pin spins (yielding) when all
  /// slots are claimed, which with batch-granularity pins would need >256
  /// simultaneously probing threads.
  static constexpr int kMaxReaders = 256;

  EpochDomain() = default;
  /// Frees every retired object. Must not run concurrently with pinned
  /// readers (the owner of the protected structure is being destroyed).
  ~EpochDomain();

  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;

  /// \brief RAII pin token; unpins on destruction. Movable, not copyable.
  class Guard {
   public:
    Guard() = default;
    Guard(Guard&& other) noexcept
        : domain_(other.domain_), slot_(other.slot_) {
      other.domain_ = nullptr;
      other.slot_ = -1;
    }
    Guard& operator=(Guard&& other) noexcept {
      if (this != &other) {
        Release();
        domain_ = other.domain_;
        slot_ = other.slot_;
        other.domain_ = nullptr;
        other.slot_ = -1;
      }
      return *this;
    }
    ~Guard() { Release(); }

    bool active() const { return domain_ != nullptr; }

    /// Early unpin (idempotent).
    void Release();

   private:
    friend class EpochDomain;
    Guard(EpochDomain* domain, int slot) : domain_(domain), slot_(slot) {}
    EpochDomain* domain_ = nullptr;
    int slot_ = -1;
  };

  /// Enters a read-side critical section. Protected pointers must be loaded
  /// while the Guard is live and not dereferenced after it dies.
  Guard Pin();

  /// Hands `obj` to the domain for deferred deletion: it is freed by a later
  /// TryReclaim/Synchronize/destructor once no pinned reader can hold it.
  /// Writer-side; safe from concurrent writers of different handles.
  template <typename T>
  void Retire(std::unique_ptr<T> obj) {
    RetireRaw(obj.release(),
              [](void* p) { delete static_cast<T*>(p); });
  }

  /// Defers an arbitrary cleanup action until every reader pinned before
  /// the call has unpinned — the generalized retire hook for state that is
  /// not a single deletable object. ShardedCcf uses it to RECYCLE retired
  /// write-buffer blocks into a per-shard spare slot instead of freeing
  /// them (steady-state staging then allocates nothing). The hook runs at
  /// most once, on whichever thread reclaims (a later Retire/TryReclaim/
  /// Synchronize or the domain destructor), so it must not assume a thread
  /// and must not pin this domain.
  void RetireHook(std::function<void()> hook);

  /// Frees every retired object whose retirement epoch every pinned reader
  /// has passed. Returns the number freed. Called opportunistically by
  /// Retire; exposed for tests and for eager cleanup.
  size_t TryReclaim();

  /// Blocks (spin + yield) until every reader pinned before the call has
  /// unpinned, then reclaims. After return, objects retired before the call
  /// are freed.
  void Synchronize();

  /// Retired-but-not-yet-freed count (diagnostics/tests).
  size_t retired_count() const;

 private:
  static constexpr uint64_t kQuiescent = ~uint64_t{0};

  struct alignas(64) Slot {
    std::atomic<uint64_t> epoch{kQuiescent};
  };
  struct Retired {
    void* obj;
    void (*deleter)(void*);
    uint64_t epoch;
  };

  void RetireRaw(void* obj, void (*deleter)(void*));
  /// Smallest epoch currently published by a pinned reader, or the current
  /// global epoch when none is pinned.
  uint64_t MinActiveEpoch() const;

  Slot slots_[kMaxReaders];
  std::atomic<uint64_t> global_epoch_{1};
  mutable std::mutex retired_mu_;
  std::vector<Retired> retired_;  // guarded by retired_mu_
};

/// \brief An epoch-protected pointer: the atomic table-snapshot swap
/// primitive.
///
/// Holds the CURRENT object; superseded objects are retired into the
/// domain. Readers Load() under a live Guard; the single writer (callers
/// serialize writers externally, e.g. a per-shard mutex) mutates through
/// writable() and replaces wholesale through Publish().
template <typename T>
class TableHandle {
 public:
  TableHandle(EpochDomain* domain, std::unique_ptr<T> initial)
      : domain_(domain), ptr_(initial.release()) {}
  ~TableHandle() { delete ptr_.load(std::memory_order_relaxed); }

  TableHandle(const TableHandle&) = delete;
  TableHandle& operator=(const TableHandle&) = delete;

  /// Read-side load; the result is safe to use while `guard` is live. The
  /// guard parameter exists purely to make unpinned loads unwritable.
  const T* Load(const EpochDomain::Guard& guard) const {
    CCF_DCHECK(guard.active());
    (void)guard;
    return ptr_.load(std::memory_order_seq_cst);
  }

  /// The current object without pin protection. Safe for the serialized
  /// writer (nothing can swap underneath it) and for callers that know the
  /// structure is quiescent; the result must not be cached across a
  /// Publish by another party.
  T* writable() { return ptr_.load(std::memory_order_relaxed); }
  const T* Current() const { return ptr_.load(std::memory_order_acquire); }

  /// Atomically installs `next` as the current object and retires the
  /// previous one into the domain. Release-publishes everything written to
  /// *next beforehand; concurrent readers observe either the old complete
  /// object or the new complete object, never a mixture.
  void Publish(std::unique_ptr<T> next) {
    T* old = ptr_.exchange(next.release(), std::memory_order_seq_cst);
    domain_->Retire(std::unique_ptr<T>(old));
  }

 private:
  EpochDomain* domain_;
  std::atomic<T*> ptr_;
};

}  // namespace ccf

#endif  // CCF_UTIL_EPOCH_H_
