// Deterministic discrete-event queue — the simulator's hot loop.
//
// Tie-break contract (load-bearing, locked by tests/sim_test.cc
// EventQueue.TieBreakIsStableAcrossTiers): events are (time, sequence,
// closure) triples ordered by time with FIFO tie-break on the monotonically
// increasing sequence number, so two events scheduled for the same instant
// always fire in scheduling order — the property that makes whole-cloud
// runs bit-reproducible (DESIGN.md §6.1, §12.4) and that the model
// checker's schedule replay (DESIGN.md §13) leans on for deterministic
// ready-set enumeration. The contract is independent of the representation
// below: whether a same-instant event was parked in the singleton buffer,
// the binary heap, or a wheel bucket (and later cascaded) is invisible to
// firing order.
//
// Representation (DESIGN.md §12):
//  * Pooled slots. Every pending event lives in one 48-byte slot in a slab
//    vector. Closures are built in place: trivially-copyable captures up to
//    16 bytes (8 for periodic events — the other 8 hold the period) are
//    stored inline; larger or non-trivial closures spill into a size-classed
//    freelist arena. No per-event std::function, no per-event heap churn.
//  * Generation-tagged ids. EventId packs (generation << 32) | (slot + 1);
//    cancel() is O(1) and cancelling a fired/recycled id is a safe no-op —
//    the generation no longer matches (the "timer raced with completion"
//    pattern).
//  * Hierarchical timer wheel fronting the binary heap. Far events hash into
//    a 4-level × 64-slot wheel (granule 2^20 ns ≈ 1.05 ms, span ≈ 4.9 h)
//    chained through the slots themselves (zero extra bytes per pending
//    event); near events go to the near tier — a one-entry singleton buffer
//    backed by the heap, so the common serial chain never touches the heap
//    vector at all. Buckets cascade into the near tier as the cursor
//    advances, so every event still *fires* in exact (time, seq) order, but
//    the periodic storm (heartbeats, health probes, monitor scans) pays O(1)
//    amortised instead of O(log n) against the whole pending set.
//  * First-class periodic events. schedule_periodic() re-arms the same slot
//    after each firing — one pool slot and zero allocations for the lifetime
//    of a periodic sim::Timer. The re-arm sequence number is allocated after
//    the callback runs, exactly where the old re-scheduling implementation
//    allocated it, so same-instant ordering (and digests) are unchanged.
//
// Cancellation stays lazy (a cancelled slot's closure is destroyed
// immediately, but the heap entry / wheel chain link is reaped when popped,
// cascaded, or compacted); compaction bounds corpse memory under the
// cancel/re-arm churn the fair-share allocators produce.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "util/check.h"

namespace picloud::sim {

// 0 is never a valid id, so value-initialised ids are inert with cancel().
using EventId = std::uint64_t;

class EventQueue {
 public:
  EventQueue();
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `fn` at absolute time `t`. Returns an id usable with cancel().
  template <typename F>
  EventId schedule(SimTime t, F&& fn) {
    const std::uint32_t s = acquire_slot();
    Slot& slot = slots_[s];
    slot.time_ns = t.ns();
    slot.seq = next_seq_++;
    install_closure<false>(slot, std::forward<F>(fn));
    ++live_count_;
    if (live_count_ > live_highwater_) live_highwater_ = live_count_;
    insert(s);
    return make_id(s);
  }

  // Schedules `fn` to fire at `first` and then every `period` after each
  // firing, all from a single recycled slot. The returned id stays valid
  // across re-arms; cancel() stops the series (including from inside the
  // callback itself).
  template <typename F>
  EventId schedule_periodic(SimTime first, Duration period, F&& fn) {
    const std::uint32_t s = acquire_slot();
    Slot& slot = slots_[s];
    slot.time_ns = first.ns();
    slot.seq = next_seq_++;
    install_closure<true>(slot, std::forward<F>(fn));
    std::memcpy(slot.payload + kPeriodOffset, &period, sizeof(std::int64_t));
    ++live_count_;
    if (live_count_ > live_highwater_) live_highwater_ = live_count_;
    insert(s);
    return make_id(s);
  }

  // Cancels a pending event in O(1). Cancelling an already-fired, recycled,
  // or unknown id is a no-op.
  void cancel(EventId id);

  // True while `id` refers to a pending (or currently-firing periodic)
  // event. Fired one-shots and recycled slots report false. Inline: the
  // fabric and CPU reschedule guards ask it per flow / task per solve.
  bool is_pending(EventId id) const {
    const std::uint32_t s = resolve(id);
    if (s == kNil) return false;
    return !(s == firing_slot_ && firing_cancelled_);
  }

  bool empty() const { return live_count_ == 0; }
  std::size_t size() const { return live_count_; }

  // Number of events that have fired, derived from accounting the hot loop
  // already does: every schedule / periodic re-arm consumes one sequence
  // number, and a consumed sequence number is either still pending (live),
  // was destroyed by cancel(), or fired. Counting this way costs the run
  // loop nothing — a dedicated per-event counter increment measurably slows
  // the dispatch chain (DESIGN.md §12.3).
  std::uint64_t executed() const {
    return (next_seq_ - 1) - live_count_ - cancelled_count_;
  }

  // Time of the earliest pending event. Requires !empty(). May cascade
  // wheel buckets into the heap to find it.
  SimTime next_time() {
    prepare();
    return SimTime::from_ns(next_is_top_ ? top_time_
                                         : heap_.front().time_ns);
  }

  // Pops and runs the earliest event. Requires !empty().
  // Returns the time the event fired at.
  // Field-wise loads (not a whole-entry copy): the entry was often stored a
  // few dozen instructions ago by the previous event's callback, and a wide
  // load spanning the narrow stores would stall store-to-load forwarding.
  SimTime run_next() {
    prepare();
    std::int64_t t;
    std::uint32_t s;
    if (next_is_top_) {
      t = top_time_;
      s = top_slot_;
      top_slot_ = kNil;
    } else {
      t = heap_.front().time_ns;
      s = heap_.front().slot;
      heap_pop();
    }
    ready_ = false;
    fire(s, t);
    return SimTime::from_ns(t);
  }

  // Fused peek + pop + dispatch for the run loop: stores the event's time to
  // *now BEFORE invoking the closure (handlers must observe the advanced
  // clock) with a single prepare() instead of the next_time()/run_next()
  // pair.
  void run_next_into(SimTime* now) {
    prepare();
    std::int64_t t;
    std::uint32_t s;
    if (next_is_top_) {
      t = top_time_;
      s = top_slot_;
      top_slot_ = kNil;
    } else {
      t = heap_.front().time_ns;
      s = heap_.front().slot;
      heap_pop();
    }
    ready_ = false;
    *now = SimTime::from_ns(t);
    fire(s, t);
  }

  // Pool / wheel instrumentation (DESIGN.md §12.2). Values are published to
  // the metrics registry on demand (Simulation::publish_queue_stats) so
  // steady-state runs — and their digests — are unaffected. That on-demand
  // publication is the registry tie; the queue itself must not depend on
  // util/metrics.h (registering gauges from the hot loop would perturb
  // snapshots and digests).
  // picloud-lint: allow(metrics-registry)
  struct Stats {
    std::size_t slots = 0;            // pool capacity (high-water by design)
    std::size_t live_highwater = 0;   // max simultaneously pending events
    std::uint64_t spill_allocs = 0;   // closures that didn't fit inline
    std::uint64_t spill_bytes_in_use = 0;
    std::uint64_t arena_bytes_reserved = 0;
    std::uint64_t wheel_inserts = 0;
    std::uint64_t heap_inserts = 0;
    std::uint64_t cascades = 0;       // bucket cascade operations
    std::uint64_t compactions = 0;
  };
  Stats stats() const;

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr int kGranuleBits = 20;  // 2^20 ns ≈ 1.05 ms per granule
  static constexpr int kLevelBits = 6;     // 64 buckets per level
  static constexpr int kLevels = 4;        // span ≈ 63 * 2^18 granules ≈ 4.9 h
  static constexpr int kBuckets = 1 << kLevelBits;
  static constexpr std::size_t kInlineBytes = 16;
  static constexpr std::size_t kPeriodOffset = 8;

  struct Ops {
    // Fused per-type dispatch: copies the closure out, releases/re-arms the
    // slot, and invokes the callback with a direct (inlinable) call — the
    // event loop's single indirect call per event. Splitting dispatch into
    // invoke/destroy pointers plus a periodic flag cost a load, a test and a
    // branch per event on top of the call; fusing lets the compiler inline
    // the closure body (and any reschedule it does) into the thunk.
    void (*fire)(EventQueue& q, std::uint32_t s, std::int64_t time_ns);
    // Destroys the closure (and returns spilled storage to the arena).
    // Null for inline trivially-copyable closures. Used by cancel() and the
    // queue destructor, never on the fire path.
    void (*destroy)(EventQueue& q, void* payload);
  };

  struct alignas(8) Slot {
    std::int64_t time_ns;
    std::uint64_t seq;
    // Inline closure bytes, or {spill pointer, period} for spilled /
    // periodic events. 8-byte aligned (offset 16 in a 48-byte record).
    unsigned char payload[kInlineBytes];
    const Ops* ops;      // null => no closure here (free or awaiting reap)
    std::uint32_t gen;   // bumped when the slot is recycled
    std::uint32_t next;  // wheel bucket chain / freelist link
  };
  static_assert(sizeof(Slot) == 48, "hot-loop slot layout");

  struct HeapEntry {
    std::int64_t time_ns;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t pad = 0;
    // Min-heap via std::*_heap with greater-than comparison.
    bool operator<(const HeapEntry& o) const {
      if (time_ns != o.time_ns) return time_ns > o.time_ns;
      return seq > o.seq;
    }
  };

  template <typename D>
  static constexpr bool inline_eligible(std::size_t budget) {
    return sizeof(D) <= budget && alignof(D) <= 8 &&
           std::is_trivially_copyable_v<D>;
  }

  template <typename D>
  struct InlineOps {
    // One-shot: free the slot BEFORE invoking (a late cancel() from inside
    // the callback is a stale-generation no-op and the slot is immediately
    // reusable), and call from a local copy — the slab may move if the
    // callback grows the pool.
    static void fire_one_shot(EventQueue& q, std::uint32_t s, std::int64_t) {
      Slot& slot = q.slots_[s];
      alignas(8) unsigned char local[kInlineBytes];
      std::memcpy(local, slot.payload, kInlineBytes);
      slot.ops = nullptr;
      q.release_slot(s);
      (*reinterpret_cast<D*>(local))();
    }
    static void fire_periodic(EventQueue& q, std::uint32_t s,
                              std::int64_t time_ns) {
      alignas(8) unsigned char local[kInlineBytes];
      std::memcpy(local, q.slots_[s].payload, kInlineBytes);
      q.firing_slot_ = s;
      q.firing_cancelled_ = false;
      (*reinterpret_cast<D*>(local))();
      q.firing_slot_ = kNil;
      Slot& after = q.slots_[s];  // re-fetch: the callback may grow the pool
      if (q.firing_cancelled_) {
        after.ops = nullptr;
        q.release_slot(s);
        return;
      }
      std::memcpy(after.payload, local, kInlineBytes);  // mutated captures
      q.rearm(s, time_ns);
    }
    static constexpr Ops one_shot{&fire_one_shot, nullptr};
    static constexpr Ops periodic{&fire_periodic, nullptr};
  };

  template <typename D>
  struct SpillOps {
    static D* target(const void* p) {
      void* ptr;
      std::memcpy(&ptr, p, sizeof(ptr));
      return static_cast<D*>(ptr);
    }
    static void dispose(EventQueue& q, D* f) {
      f->~D();
      q.spill_free(f, sizeof(D), alignof(D));
    }
    static void fire_one_shot(EventQueue& q, std::uint32_t s, std::int64_t) {
      Slot& slot = q.slots_[s];
      D* f = target(slot.payload);
      slot.ops = nullptr;
      q.release_slot(s);
      (*f)();
      dispose(q, f);
    }
    static void fire_periodic(EventQueue& q, std::uint32_t s,
                              std::int64_t time_ns) {
      // The payload {spill pointer, period} is immutable during the
      // callback (captures mutate through the pointer), so no copy-back.
      alignas(8) unsigned char local[kInlineBytes];
      std::memcpy(local, q.slots_[s].payload, kInlineBytes);
      q.firing_slot_ = s;
      q.firing_cancelled_ = false;
      (*target(local))();
      q.firing_slot_ = kNil;
      Slot& after = q.slots_[s];  // re-fetch: the callback may grow the pool
      if (q.firing_cancelled_) {
        dispose(q, target(local));
        after.ops = nullptr;
        q.release_slot(s);
        return;
      }
      q.rearm(s, time_ns);
    }
    static void destroy(EventQueue& q, void* p) { dispose(q, target(p)); }
    static constexpr Ops one_shot{&fire_one_shot, &destroy};
    static constexpr Ops periodic{&fire_periodic, &destroy};
  };

  template <bool Periodic, typename F>
  void install_closure(Slot& slot, F&& fn) {
    using D = std::decay_t<F>;
    constexpr std::size_t budget =
        Periodic ? kPeriodOffset : kInlineBytes;  // periodic keeps the period
    if constexpr (inline_eligible<D>(budget)) {
      ::new (static_cast<void*>(slot.payload)) D(std::forward<F>(fn));
      slot.ops = Periodic ? &InlineOps<D>::periodic : &InlineOps<D>::one_shot;
    } else {
      void* mem = spill_alloc(sizeof(D), alignof(D));
      ::new (mem) D(std::forward<F>(fn));
      std::memcpy(slot.payload, &mem, sizeof(mem));
      slot.ops = Periodic ? &SpillOps<D>::periodic : &SpillOps<D>::one_shot;
    }
  }

  EventId make_id(std::uint32_t s) const {
    return (static_cast<EventId>(slots_[s].gen) << 32) |
           (static_cast<EventId>(s) + 1);
  }
  // Returns the slot index for `id`, or kNil if the id is stale/invalid.
  std::uint32_t resolve(EventId id) const {
    if (id == 0) return kNil;
    const std::uint32_t s = static_cast<std::uint32_t>(id & 0xFFFFFFFFu) - 1;
    if (s >= slots_.size()) return kNil;
    const Slot& slot = slots_[s];
    if (slot.gen != static_cast<std::uint32_t>(id >> 32)) return kNil;
    if (slot.ops == nullptr) return kNil;  // fired / cancelled, not reaped yet
    return s;
  }

  // The per-event paths below are defined inline: the hot loop (schedule →
  // prepare → fire → re-schedule) must not pay a cross-TU call per step.
  //
  // A one-entry hot-slot cache fronts the freelist: the fire-then-reschedule
  // pattern reuses the slot it just released through a single member instead
  // of the two dependent loads (free_head_, then slot.next) a freelist pop
  // costs. Slot *identity* is internal — which index an event lands in is
  // unobservable as long as ids resolve consistently — so the cache does not
  // affect event ordering.
  std::uint32_t acquire_slot() {
    const std::uint32_t h = hot_free_;
    if (h != kNil) {
      hot_free_ = kNil;
      return h;
    }
    if (free_head_ != kNil) {
      const std::uint32_t s = free_head_;
      free_head_ = slots_[s].next;
      return s;
    }
    return acquire_slot_grow();
  }
  std::uint32_t acquire_slot_grow();
  void release_slot(std::uint32_t s) {
    Slot& slot = slots_[s];
    PICLOUD_DCHECK(slot.ops == nullptr)
        << "releasing a slot with a live closure";
    ++slot.gen;  // stale EventIds stop resolving
    if (hot_free_ == kNil) {
      hot_free_ = s;
      return;
    }
    slot.next = free_head_;
    free_head_ = s;
  }
  void destroy_closure(Slot& slot);

  // Strict total order (seq is unique): true iff `a` dispatches before `b`.
  static bool fires_before(const HeapEntry& a, const HeapEntry& b) {
    if (a.time_ns != b.time_ns) return a.time_ns < b.time_ns;
    return a.seq < b.seq;
  }
  // Hand-rolled sift-down keeps the in-flight entry in registers (the std
  // algorithms round-trip it through memory, stalling store-to-load
  // forwarding on the back-to-back schedule/dispatch pattern). Pop order is
  // decided by fires_before alone (a total order — each pop removes the
  // unique minimum), so the array layout differences vs the std algorithms
  // are unobservable.
  void heap_pop() {
    const std::size_t n = heap_.size() - 1;
    if (n > 0) {
      const HeapEntry e = heap_[n];  // relocate the last entry
      std::size_t i = 0;
      for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n) break;
        const std::size_t right = child + 1;
        if (right < n && fires_before(heap_[right], heap_[child])) {
          child = right;
        }
        if (!fires_before(heap_[child], e)) break;
        heap_[i] = heap_[child];
        i = child;
      }
      heap_[i] = e;
    }
    heap_.pop_back();
  }

  void insert(std::uint32_t s) {
    const std::int64_t g = slots_[s].time_ns >> kGranuleBits;
    if (g - cursor_granule_ <= 0) {
      // Singleton inserts are deliberately uncounted: stats_.heap_inserts
      // measures binary-heap pressure, and total near-tier traffic is
      // recoverable as events_executed - wheel_inserts.
      if (top_slot_ == kNil) {
        top_slot_ = s;
        top_time_ = slots_[s].time_ns;
        top_seq_ = slots_[s].seq;
        // Sole-event fast path: an empty heap and wheel hold no other event
        // (live or dead), so this one is provably next and the per-event
        // prepare() collapses to its ready_ test. No cursor catch-up is
        // needed — a near insert already satisfies g <= cursor_granule_.
        ready_ = wheel_count_ == 0 && heap_.empty();
        next_is_top_ = true;
      } else {
        // The memoized next_is_top_ choice may be stale now.
        ready_ = false;
        heap_insert(s);
      }
      return;
    }
    insert_far(s, g);
  }
  void heap_insert(std::uint32_t s) {
    const Slot& slot = slots_[s];
    heap_.push_back(HeapEntry{slot.time_ns, slot.seq, s});
    std::push_heap(heap_.begin(), heap_.end());
    ++stats_.heap_inserts;
  }
  void insert_far(std::uint32_t s, std::int64_t g);
  void wheel_insert(int level, std::uint32_t s, std::int64_t pos);
  // Dispatch: one indirect call into the event's fused per-type thunk,
  // which inlines the closure invocation, slot release / periodic re-arm,
  // and spill disposal (InlineOps / SpillOps above).
  void fire(std::uint32_t s, std::int64_t time_ns) {
    const Ops* const ops = slots_[s].ops;
    PICLOUD_DCHECK(ops != nullptr) << "firing a dead slot";
    --live_count_;
    ops->fire(*this, s, time_ns);
  }
  // Shared periodic re-arm tail: allocates the fresh sequence number AFTER
  // the callback ran (bit-compatible with the re-scheduling periodic task
  // the first-class slots replaced) and re-inserts the same slot.
  void rearm(std::uint32_t s, std::int64_t fired_at_ns);
  // Identifies the globally earliest live event (singleton buffer or heap
  // front, recorded in next_is_top_), dropping dead entries and cascading
  // due wheel buckets as needed. Requires !empty() — checked in prepare_slow
  // (ready_ and the live-candidate fast paths below all imply nonempty, so
  // misuse always falls through to the check).
  void prepare() {
    if (ready_) return;
    // Fast path: pick between the singleton (always live — cancel() repairs
    // it eagerly) and the heap front, then let the cached wheel bound (or an
    // empty wheel) prove no parked bucket can beat the choice. Dead heap
    // fronts and stale bounds fall through to prepare_slow().
    std::int64_t t;
    bool use_top;
    if (top_slot_ != kNil) {
      if (heap_.empty()) {
        use_top = true;
        t = top_time_;
      } else {
        const HeapEntry& f = heap_.front();
        if (slots_[f.slot].ops == nullptr) {
          prepare_slow();
          return;
        }
        use_top = f.time_ns > top_time_ ||
                  (f.time_ns == top_time_ && f.seq > top_seq_);
        t = use_top ? top_time_ : f.time_ns;
      }
    } else if (!heap_.empty() && slots_[heap_.front().slot].ops != nullptr) {
      use_top = false;
      t = heap_.front().time_ns;
    } else {
      prepare_slow();
      return;
    }
    if (wheel_count_ != 0 && !(bound_valid_ && t < bound_cache_)) {
      prepare_slow();
      return;
    }
    const std::int64_t g = t >> kGranuleBits;
    if (g > cursor_granule_) cursor_granule_ = g;
    next_is_top_ = use_top;
    ready_ = true;
  }
  void prepare_slow();
  // Smallest bucket start time across the wheel, or INT64_MAX when empty.
  std::int64_t wheel_bound(int* level, int* bucket) const;
  void cascade(int level, int bucket);
  void compact();

  void* spill_alloc(std::size_t bytes, std::size_t align);
  void spill_free(void* p, std::size_t bytes, std::size_t align);
  static int spill_class(std::size_t bytes);

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNil;
  std::uint32_t hot_free_ = kNil;  // one-entry cache in front of free_head_
  std::uint64_t next_seq_ = 1;

  std::vector<HeapEntry> heap_;
  std::uint32_t buckets_[kLevels][kBuckets];
  std::uint64_t occupied_[kLevels] = {};
  std::int64_t cursor_granule_ = 0;
  std::size_t wheel_count_ = 0;  // live + dead slots chained in the wheel
  // Cached wheel_bound() (INT64_MAX when the wheel is empty / cache stale →
  // recompute). Keeps the per-event prepare() to a couple of compares.
  std::int64_t bound_cache_ = 0;
  bool bound_valid_ = false;

  // Singleton buffer in front of the heap: with one pending event (the
  // serial self-scheduling chain that dominates app workloads) the hot loop
  // runs entirely through these three scalars and never touches the heap
  // vector — no push_back, no sift, no size arithmetic. top_slot_ == kNil
  // means empty; a non-nil singleton is always live (cancel() frees it
  // eagerly instead of leaving a corpse, so prepare() never tests it).
  std::uint32_t top_slot_ = kNil;
  std::int64_t top_time_ = 0;
  std::uint64_t top_seq_ = 0;

  std::size_t live_count_ = 0;
  // On the same hot line as live_count_ — tracking it against the cold
  // stats_ block cost ~2% of kernel throughput.
  std::size_t live_highwater_ = 0;
  std::size_t dead_count_ = 0;     // cancelled, still referenced by heap/wheel
  std::uint64_t cancelled_count_ = 0;  // closures destroyed before firing
  bool ready_ = false;        // the next_is_top_ choice below is the earliest
  bool next_is_top_ = false;  // valid while ready_: singleton fires next

  // Deferred-cancel guard for a periodic event cancelled mid-callback.
  std::uint32_t firing_slot_ = kNil;
  bool firing_cancelled_ = false;

  // Spill arena: 8 size classes (32..4096 bytes) of freelisted blocks carved
  // from 64 KiB slabs; larger closures fall back to operator new. Memory is
  // retained until the queue is destroyed.
  static constexpr int kSpillClasses = 8;
  struct FreeNode {
    FreeNode* next;
  };
  FreeNode* spill_free_[kSpillClasses] = {};
  std::vector<void*> slabs_;
  unsigned char* slab_bump_ = nullptr;
  std::size_t slab_left_ = 0;

  mutable Stats stats_;
};

}  // namespace picloud::sim
