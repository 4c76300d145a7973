// Discrete-event queue over virtual time, used by the asynchronous baseline
// (AD-ADMM), whose workers each keep at most one report in flight, so at
// most `world` events are pending.
//
// Events run in (time, insertion seq) order, so a given seed reproduces the
// exact event ordering. The queue is a binary min-heap of fixed-size,
// slab-allocated event records (DESIGN.md §10); callables are stored inline
// (no std::function heap spill) and records recycle through a free list, so
// the steady-state path performs zero allocations per event (gated in
// tests/test_alloc.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "simnet/cost_model.hpp"
#include "support/status.hpp"

namespace psra::simnet {

class EventQueue {
 public:
  /// Callables larger than this must capture a pointer to out-of-band
  /// context; the record size is what keeps the arena slab-friendly.
  static constexpr std::size_t kInlineCallbackBytes = 64;

  EventQueue() = default;
  ~EventQueue();

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `cb` at absolute virtual time `t` (must be >= Now()).
  template <typename F>
  void ScheduleAt(VirtualTime t, F cb) {
    static_assert(std::is_invocable_v<F&>, "event callback must be callable");
    static_assert(sizeof(F) <= kInlineCallbackBytes,
                  "event callback too large for inline record storage; "
                  "capture a pointer to shared context instead");
    static_assert(alignof(F) <= alignof(std::max_align_t),
                  "over-aligned event callback");
    PSRA_REQUIRE(t >= now_, "cannot schedule an event in the past");
    if constexpr (std::is_constructible_v<bool, const F&>) {
      PSRA_REQUIRE(static_cast<bool>(cb), "null event callback");
    }
    Record* r = AllocRecord();
    r->time = t;
    r->seq = next_seq_++;
    ::new (static_cast<void*>(r->storage)) F(std::move(cb));
    r->run = &RunAndDestroy<F>;
    r->destroy = &DestroyOnly<F>;
    Push(r);
  }

  /// Schedules `cb` `delay` seconds after Now().
  template <typename F>
  void ScheduleAfter(VirtualTime delay, F cb) {
    PSRA_REQUIRE(delay >= 0, "negative delay");
    ScheduleAt(now_ + delay, std::move(cb));
  }

  /// Runs events in time order until the queue drains (or `max_events`).
  /// Returns the number of events executed.
  std::size_t Run(std::size_t max_events = SIZE_MAX);

  /// Executes only the next event; returns false if the queue is empty.
  bool Step();

  VirtualTime Now() const { return now_; }
  bool Empty() const { return heap_.empty(); }
  std::size_t Pending() const { return heap_.size(); }

 private:
  struct Record {
    VirtualTime time;
    std::uint64_t seq;
    void (*run)(void*);      // invoke the callable, then destroy it
    void (*destroy)(void*);  // destroy without invoking (queue teardown)
    alignas(std::max_align_t) unsigned char storage[kInlineCallbackBytes];
  };

  template <typename F>
  static void RunAndDestroy(void* p) {
    F* f = std::launder(reinterpret_cast<F*>(p));
    struct Dtor {
      F* f;
      ~Dtor() { f->~F(); }
    } dtor{f};
    (*f)();
  }

  template <typename F>
  static void DestroyOnly(void* p) {
    std::launder(reinterpret_cast<F*>(p))->~F();
  }

  Record* AllocRecord();
  void AddSlab();
  void FreeRecord(Record* r) { free_.push_back(r); }
  void Push(Record* r);

  // -- pending events: a heap whose front is the least (time, seq) ---------
  std::vector<Record*> heap_;

  // -- arena ---------------------------------------------------------------
  std::vector<std::unique_ptr<Record[]>> slabs_;
  std::vector<Record*> free_;

  VirtualTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace psra::simnet
