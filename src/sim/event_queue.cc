#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <limits>

namespace picloud::sim {

namespace {
constexpr std::size_t kSlabBytes = 64 * 1024;
constexpr std::size_t kMinSpillBlock = 32;
}  // namespace

EventQueue::EventQueue() {
  for (auto& level : buckets_) {
    for (std::uint32_t& head : level) head = kNil;
  }
}

EventQueue::~EventQueue() {
  // Pending closures still own resources (captured strings, shared_ptrs);
  // run their destructors before the slabs go away.
  for (Slot& slot : slots_) {
    if (slot.ops != nullptr) destroy_closure(slot);
  }
  for (void* slab : slabs_) ::operator delete(slab);
}

std::uint32_t EventQueue::acquire_slot_grow() {
  PICLOUD_CHECK_LT(slots_.size(), static_cast<std::size_t>(kNil))
      << "event pool exhausted";
  slots_.emplace_back();
  slots_.back().ops = nullptr;
  slots_.back().gen = 0;
  stats_.slots = slots_.size();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::destroy_closure(Slot& slot) {
  if (slot.ops->destroy != nullptr) slot.ops->destroy(*this, slot.payload);
  slot.ops = nullptr;
}

void EventQueue::cancel(EventId id) {
  const std::uint32_t s = resolve(id);
  if (s == kNil) return;
  if (s == firing_slot_) {
    // A periodic event cancelling itself from inside its own callback: the
    // closure is executing, so defer teardown to fire().
    firing_cancelled_ = true;
    return;
  }
  destroy_closure(slots_[s]);
  PICLOUD_DCHECK_GT(live_count_, 0u) << "cancel() live-count underflow";
  --live_count_;
  ++cancelled_count_;  // keeps executed() exact off the hot path
  if (s == top_slot_) {
    // Eager repair: the singleton is referenced by nothing else, so free it
    // right here. This keeps the invariant "top_slot_ != kNil implies the
    // slot is live", which lets the per-event prepare() fast path skip the
    // liveness load for the singleton entirely.
    top_slot_ = kNil;
    release_slot(s);
    ready_ = false;
    return;
  }
  ++dead_count_;
  if (ready_ && !heap_.empty() && heap_.front().slot == s) ready_ = false;
  // Reap corpses once they outnumber the live set (amortised O(1)) so the
  // cancel/re-arm churn of the fair-share allocators can't grow the
  // containers without bound.
  if (dead_count_ > live_count_ + 1024) compact();
}

void EventQueue::insert_far(std::uint32_t s, std::int64_t g) {
  for (int k = 0; k < kLevels; ++k) {
    const std::int64_t pos = g >> (kLevelBits * k);
    if (pos - (cursor_granule_ >> (kLevelBits * k)) < kBuckets) {
      wheel_insert(k, s, pos);
      return;
    }
  }
  heap_insert(s);  // beyond the wheel span (~4.9 h): rare, O(log n) is fine
}

void EventQueue::wheel_insert(int level, std::uint32_t s, std::int64_t pos) {
  const int idx = static_cast<int>(pos & (kBuckets - 1));
  Slot& slot = slots_[s];
  slot.next = buckets_[level][idx];
  buckets_[level][idx] = s;
  occupied_[level] |= 1ULL << idx;
  ++wheel_count_;
  ++stats_.wheel_inserts;
  if (bound_valid_) {
    const std::int64_t start = pos << (kLevelBits * level + kGranuleBits);
    if (start < bound_cache_) bound_cache_ = start;
  }
  // ready_ stays valid: wheel granules are strictly beyond the prepared
  // heap top's granule (the cursor caught up to it in prepare()).
}

std::int64_t EventQueue::wheel_bound(int* level, int* bucket) const {
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  for (int k = 0; k < kLevels; ++k) {
    const std::uint64_t occ = occupied_[k];
    if (occ == 0) continue;
    const std::int64_t base = cursor_granule_ >> (kLevelBits * k);
    const int pb = static_cast<int>(base & (kBuckets - 1));
    // Rotate so bit j corresponds to bucket (pb + j) & 63: the first set
    // bit is the soonest bucket at this level. Positions live in
    // [base, base + 63] by the insert rule, so the reconstruction is exact.
    const int delta = std::countr_zero(std::rotr(occ, pb));
    const std::int64_t start = (base + delta)
                               << (kLevelBits * k + kGranuleBits);
    if (start < best) {
      best = start;
      *level = k;
      *bucket = (pb + delta) & (kBuckets - 1);
    }
  }
  return best;
}

void EventQueue::cascade(int level, int bucket) {
  ++stats_.cascades;
  bound_valid_ = false;  // the soonest bucket is being emptied
  std::uint32_t s = buckets_[level][bucket];
  buckets_[level][bucket] = kNil;
  occupied_[level] &= ~(1ULL << bucket);
  // Advance the cursor to the bucket's start before re-routing: every
  // event's remaining delta is then under one bucket span, so it lands at a
  // strictly lower level or in the heap — never back here.
  const std::int64_t base = cursor_granule_ >> (kLevelBits * level);
  const int pb = static_cast<int>(base & (kBuckets - 1));
  const std::int64_t start =
      (base + ((bucket - pb) & (kBuckets - 1))) << (kLevelBits * level);
  cursor_granule_ = std::max(cursor_granule_, start);
  while (s != kNil) {
    Slot& slot = slots_[s];
    const std::uint32_t next = slot.next;
    --wheel_count_;
    if (slot.ops == nullptr) {  // cancelled while parked: reap
      --dead_count_;
      release_slot(s);
    } else {
      insert(s);
    }
    s = next;
  }
}

void EventQueue::prepare_slow() {
  PICLOUD_CHECK_GT(live_count_, 0u) << "next on empty EventQueue";
  for (;;) {
    // The singleton is always live (cancel() repairs it eagerly).
    PICLOUD_DCHECK(top_slot_ == kNil || slots_[top_slot_].ops != nullptr)
        << "dead singleton";
    // Drop dead heap tops.
    while (!heap_.empty() && slots_[heap_.front().slot].ops == nullptr) {
      --dead_count_;
      release_slot(heap_.front().slot);
      heap_pop();
    }
    // Near-tier minimum across the singleton and the heap front.
    bool use_top = top_slot_ != kNil;
    bool have = use_top;
    std::int64_t t = use_top ? top_time_ : 0;
    std::uint64_t q = use_top ? top_seq_ : 0;
    if (!heap_.empty()) {
      const HeapEntry& f = heap_.front();
      if (!have || f.time_ns < t || (f.time_ns == t && f.seq < q)) {
        have = true;
        use_top = false;
        t = f.time_ns;
        q = f.seq;
      }
    }
    if (wheel_count_ != 0) {
      if (!bound_valid_) {
        int l = 0;
        int b = 0;
        bound_cache_ = wheel_bound(&l, &b);
        bound_valid_ = true;
      }
      // Strict <: a wheel event at exactly the near-tier minimum's time may
      // carry a smaller sequence number, so ties must cascade before firing.
      if (!(have && t < bound_cache_)) {
        int level = 0;
        int bucket = 0;
        wheel_bound(&level, &bucket);
        bound_valid_ = false;
        cascade(level, bucket);  // re-routed events may refill the singleton
        continue;
      }
    } else {
      PICLOUD_CHECK(have) << "event accounting desync";
    }
    // All buckets at or before the minimum's granule have cascaded; catching
    // the cursor up keeps near reschedules on the near-tier fast path.
    cursor_granule_ = std::max(cursor_granule_, t >> kGranuleBits);
    next_is_top_ = use_top;
    ready_ = true;
    return;
  }
}

void EventQueue::rearm(std::uint32_t s, std::int64_t fired_at_ns) {
  // The fresh sequence number is allocated *after* the callback ran, so
  // events the callback scheduled fire ahead of the next occurrence at a
  // shared instant — bit-compatible with the re-scheduling periodic task the
  // first-class slots replaced.
  Slot& slot = slots_[s];
  std::int64_t period = 0;
  std::memcpy(&period, slot.payload + kPeriodOffset, sizeof(period));
  slot.time_ns = fired_at_ns + period;
  slot.seq = next_seq_++;
  ++live_count_;
  insert(s);
}

void EventQueue::compact() {
  ++stats_.compactions;
  std::erase_if(heap_, [this](const HeapEntry& e) {
    if (slots_[e.slot].ops != nullptr) return false;
    --dead_count_;
    release_slot(e.slot);
    return true;
  });
  std::make_heap(heap_.begin(), heap_.end());
  for (int k = 0; k < kLevels; ++k) {
    std::uint64_t occ = occupied_[k];
    while (occ != 0) {
      const int idx = std::countr_zero(occ);
      occ &= occ - 1;
      std::uint32_t* link = &buckets_[k][idx];
      while (*link != kNil) {
        const std::uint32_t s = *link;
        Slot& slot = slots_[s];
        if (slot.ops == nullptr) {
          *link = slot.next;
          --wheel_count_;
          --dead_count_;
          release_slot(s);
        } else {
          link = &slot.next;
        }
      }
      if (buckets_[k][idx] == kNil) occupied_[k] &= ~(1ULL << idx);
    }
  }
  ready_ = false;
  bound_valid_ = false;
  PICLOUD_DCHECK_EQ(dead_count_, 0u) << "corpses outside heap and wheel";
}

int EventQueue::spill_class(std::size_t bytes) {
  std::size_t block = kMinSpillBlock;
  for (int k = 0; k < kSpillClasses; ++k, block <<= 1) {
    if (bytes <= block) return k;
  }
  return -1;
}

void* EventQueue::spill_alloc(std::size_t bytes, std::size_t align) {
  ++stats_.spill_allocs;
  stats_.spill_bytes_in_use += bytes;
  const int k = align <= 16 ? spill_class(bytes) : -1;
  if (k < 0) {
    if (align > __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
      return ::operator new(bytes, std::align_val_t{align});
    }
    return ::operator new(bytes);
  }
  if (spill_free_[k] != nullptr) {
    FreeNode* node = spill_free_[k];
    spill_free_[k] = node->next;
    return node;
  }
  const std::size_t block = kMinSpillBlock << k;
  if (slab_left_ < block) {
    slabs_.push_back(::operator new(kSlabBytes));
    slab_bump_ = static_cast<unsigned char*>(slabs_.back());
    slab_left_ = kSlabBytes;
    stats_.arena_bytes_reserved += kSlabBytes;
  }
  void* p = slab_bump_;
  slab_bump_ += block;
  slab_left_ -= block;
  return p;
}

void EventQueue::spill_free(void* p, std::size_t bytes, std::size_t align) {
  stats_.spill_bytes_in_use -= bytes;
  const int k = align <= 16 ? spill_class(bytes) : -1;
  if (k < 0) {
    if (align > __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
      ::operator delete(p, std::align_val_t{align});
    } else {
      ::operator delete(p);
    }
    return;
  }
  FreeNode* node = static_cast<FreeNode*>(p);
  node->next = spill_free_[k];
  spill_free_[k] = node;
}

EventQueue::Stats EventQueue::stats() const {
  stats_.slots = slots_.size();
  stats_.live_highwater = live_highwater_;
  return stats_;
}

}  // namespace picloud::sim
