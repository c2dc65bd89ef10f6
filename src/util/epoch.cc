#include "util/epoch.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <thread>

namespace ccf {

EpochDomain::~EpochDomain() {
  // Owner teardown: no pinned readers may remain (they would be probing a
  // structure that is being destroyed).
  CCF_DCHECK(std::all_of(std::begin(slots_), std::end(slots_),
                         [](const Slot& s) {
                           return s.epoch.load(std::memory_order_acquire) ==
                                  kQuiescent;
                         }));
  std::lock_guard<std::mutex> lock(retired_mu_);
  for (const Retired& r : retired_) r.deleter(r.obj);
  retired_.clear();
}

void EpochDomain::Guard::Release() {
  if (domain_ == nullptr) return;
  domain_->slots_[slot_].epoch.store(kQuiescent, std::memory_order_release);
  domain_ = nullptr;
  slot_ = -1;
}

EpochDomain::Guard EpochDomain::Pin() {
  // Start the slot scan at a per-thread offset so unrelated threads don't
  // fight over slot 0.
  static thread_local uint32_t hint =
      static_cast<uint32_t>(std::hash<std::thread::id>{}(
          std::this_thread::get_id()));
  for (;;) {
    for (int i = 0; i < kMaxReaders; ++i) {
      int s = static_cast<int>((hint + static_cast<uint32_t>(i)) %
                               kMaxReaders);
      uint64_t expected = kQuiescent;
      // Claim = publish our epoch in one CAS. seq_cst so the slot store is
      // globally ordered before any subsequent protected-pointer load (see
      // the safety argument in the header).
      if (slots_[s].epoch.compare_exchange_strong(
              expected, global_epoch_.load(std::memory_order_seq_cst),
              std::memory_order_seq_cst, std::memory_order_relaxed)) {
        hint = static_cast<uint32_t>(s);
        return Guard(this, s);
      }
    }
    std::this_thread::yield();  // every slot claimed: wait for an unpin
  }
}

uint64_t EpochDomain::MinActiveEpoch() const {
  uint64_t min = global_epoch_.load(std::memory_order_seq_cst);
  for (const Slot& slot : slots_) {
    uint64_t e = slot.epoch.load(std::memory_order_seq_cst);
    if (e != kQuiescent && e < min) min = e;
  }
  return min;
}

void EpochDomain::RetireHook(std::function<void()> hook) {
  auto* boxed = new std::function<void()>(std::move(hook));
  RetireRaw(boxed, [](void* p) {
    auto* fn = static_cast<std::function<void()>*>(p);
    (*fn)();
    delete fn;
  });
}

void EpochDomain::RetireRaw(void* obj, void (*deleter)(void*)) {
  uint64_t epoch = global_epoch_.fetch_add(1, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lock(retired_mu_);
    retired_.push_back(Retired{obj, deleter, epoch});
  }
  TryReclaim();
}

size_t EpochDomain::TryReclaim() {
  std::vector<Retired> to_free;
  {
    std::lock_guard<std::mutex> lock(retired_mu_);
    if (retired_.empty()) return 0;
    uint64_t min_active = MinActiveEpoch();
    size_t kept = 0;
    for (Retired& r : retired_) {
      // A reader pinned at epoch E can hold objects retired at epoch >= E
      // only if they were swapped out after it pinned — those have
      // retirement epoch >= E and are kept here.
      if (r.epoch < min_active) {
        to_free.push_back(r);
      } else {
        retired_[kept++] = r;
      }
    }
    retired_.resize(kept);
  }
  // Deleters run outside the lock: freeing a multi-megabyte table must not
  // stall concurrent retirers.
  for (const Retired& r : to_free) r.deleter(r.obj);
  return to_free.size();
}

void EpochDomain::Synchronize() {
  uint64_t target = global_epoch_.fetch_add(1, std::memory_order_seq_cst) + 1;
  while (MinActiveEpoch() < target) std::this_thread::yield();
  TryReclaim();
}

size_t EpochDomain::retired_count() const {
  std::lock_guard<std::mutex> lock(retired_mu_);
  return retired_.size();
}

}  // namespace ccf
