// Hashed hierarchical timer wheel — the event queue of a shard's event
// loop. The per-packet callback storm of a large fleet (one decode / play
// timer per speaker per packet) makes the classic binary-heap event queue
// the bottleneck: every push and pop percolates O(log n) cache lines. The
// wheel schedules in O(1): an entry's expiry tick is hashed into one of 64
// slots at the level matching its distance, levels cover geometrically
// larger horizons, and far entries cascade down a level each time the
// cursor reaches their slot.
//
// Determinism contract (the reason this is not an off-the-shelf wheel):
// entries pop in exactly (time, seq) order — seq is the caller's insertion
// counter, so same-instant entries stay FIFO. The paper's protocol depends
// on that ("everybody receives a multicast packet at the same time", §3.2),
// and the sharded runtime's bit-identity guarantee depends on the wheel
// agreeing with a binary-heap reference on every pop
// (tests/timer_wheel_test.cc sweeps the two against each other).
//
// Internals: ticks are time >> kTickBits (1.024 us). Level L slots are
// 64^L ticks wide; an entry is filed at the level of the highest bit in
// which its tick differs from the cursor's, so a slot is always strictly
// ahead of the cursor and cascading re-files at a strictly lower level
// (terminates). Entries whose tick has been reached live in `due_`, a tiny
// (time, seq) min-heap that holds at most one slot's worth of entries plus
// same-tick insertions — the only O(log n) structure left, over a few
// entries instead of the whole queue. Occupancy bitmaps (one uint64 per
// level) let the cursor jump straight to the next populated slot instead of
// stepping tick by tick.
#ifndef SRC_SIM_TIMER_WHEEL_H_
#define SRC_SIM_TIMER_WHEEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/base/time_types.h"

namespace espk {

// What the wheel stores: the scheduled instant, the scheduler's FIFO
// tie-breaker, and an opaque id the owner resolves to a callback (or to
// nothing, for cancelled stubs — the wheel itself never learns about
// cancellation, exactly like the heap it replaces).
struct TimerEntry {
  SimTime time = 0;
  uint64_t seq = 0;
  uint64_t id = 0;
};

class TimerWheel {
 public:
  TimerWheel();

  // Files `entry`. Entries at or before the cursor's current tick are
  // accepted (they join the due heap); times must be non-negative.
  void Schedule(const TimerEntry& entry);

  // Pops the earliest entry (by (time, seq)) whose time is <= `limit` into
  // `*out`, advancing the cursor as needed. Returns false — leaving `*out`
  // untouched — when no such entry exists.
  bool PopEarliest(SimTime limit, TimerEntry* out);

  // Copies the earliest entry into `*out` without removing it; false when
  // empty. Advances the cursor as a side effect (harmless: ordering never
  // depends on the cursor, only filing efficiency does). The sharded
  // runtime's epoch planner uses this to jump over idle stretches.
  bool PeekEarliest(TimerEntry* out);

  // Entries currently filed (including cancelled stubs not yet popped).
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Entries re-filed from a higher level when the cursor reached their slot
  // — each cascade is a re-hash plus a vector append, so the count is the
  // wheel's self-telemetry for "how much filing work the horizon shape
  // causes" (far-future timers cascade once per level they descend).
  uint64_t cascades() const { return cascades_; }

 private:
  static constexpr int kTickBits = 10;  // 1 tick = 1.024 us.
  static constexpr int kSlotBits = 6;   // 64 slots per level.
  static constexpr int kSlots = 1 << kSlotBits;
  // 9 levels x 6 bits = 54 bits of ticks; with 10 tick bits that spans the
  // full non-negative SimTime range, so there is no overflow list.
  static constexpr int kLevels = 9;

  static uint64_t Tick(SimTime t) {
    return static_cast<uint64_t>(t) >> kTickBits;
  }

  // Files into a wheel slot or the due heap without touching size_.
  void File(const TimerEntry& entry);
  void PushDue(const TimerEntry& entry);
  // Advances the cursor (cascading slots) until the globally-earliest entry
  // sits at due_.front(); false when the wheel is empty.
  bool Settle();

  uint64_t cursor_ = 0;  // Tick the wheel has advanced to.
  size_t size_ = 0;
  uint64_t cascades_ = 0;
  // due_ is kept as a std::push_heap/pop_heap min-heap on (time, seq).
  std::vector<TimerEntry> due_;
  std::vector<TimerEntry> slots_[kLevels][kSlots];
  uint64_t occupied_[kLevels] = {};  // Bit s set => slots_[L][s] non-empty.
};

}  // namespace espk

#endif  // SRC_SIM_TIMER_WHEEL_H_
