// Bounded single-producer/single-consumer ring, the request handoff of
// FilterCatalog's cross-request batcher (serve/filter_catalog.h): querying
// threads (producer) push parked request descriptors, the one batcher
// thread (consumer) pops, groups and resolves them. With exactly one
// thread on each side, push and pop are a single release store against a
// single acquire load each — no CAS, no shared modified line beyond the
// two indices.
//
// Contract: at most one concurrent pusher and one concurrent popper.
// FilterCatalog serializes its (potentially many) querying threads on a
// producer mutex, which preserves the single-producer memory ordering; the
// consumer side is always the batcher thread. A full ring rejects the push
// (TryPush returns false) — callers fall back to resolving the request
// inline, so the bound is backpressure, never blocking.
#ifndef CCF_UTIL_SPSC_RING_H_
#define CCF_UTIL_SPSC_RING_H_

#include <atomic>
#include <cstddef>
#include <vector>

#include "util/math_util.h"

namespace ccf {

/// \brief Bounded SPSC FIFO of trivially-copyable values (request
/// pointers, in the catalog batcher). Capacity is rounded up to a power of
/// two.
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(size_t min_capacity)
      : mask_(NextPowerOfTwo(min_capacity < 2 ? 2 : min_capacity) - 1),
        slots_(mask_ + 1) {}

  size_t capacity() const { return mask_ + 1; }

  /// Producer-side: appends `value`; false when the ring is full. The
  /// release store of tail_ publishes the slot write to the consumer.
  bool TryPush(const T& value) {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    const size_t head = head_.load(std::memory_order_acquire);
    if (tail - head > mask_) return false;  // full
    slots_[tail & mask_] = value;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer-side: pops the oldest value into *out; false when empty. The
  /// acquire load of tail_ makes the producer's slot write visible before
  /// the read.
  bool TryPop(T* out) {
    const size_t head = head_.load(std::memory_order_relaxed);
    const size_t tail = tail_.load(std::memory_order_acquire);
    if (head == tail) return false;  // empty
    *out = slots_[head & mask_];
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Snapshot emptiness (either side; racy by nature — a poll hint only).
  bool Empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

 private:
  const size_t mask_;
  std::vector<T> slots_;
  /// Producer and consumer indices on separate cache lines so the two
  /// sides never write-share a line (the indices are monotonically
  /// increasing; slot position is index & mask_).
  alignas(64) std::atomic<size_t> tail_{0};  // producer-owned
  alignas(64) std::atomic<size_t> head_{0};  // consumer-owned
};

}  // namespace ccf

#endif  // CCF_UTIL_SPSC_RING_H_
