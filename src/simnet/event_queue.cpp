#include "simnet/event_queue.hpp"

#include <algorithm>

namespace psra::simnet {

namespace {

/// Heap order: `a` runs after `b`. The std:: heap algorithms keep the
/// greatest element in front, so the front is the earliest event.
struct Later {
  template <typename R>
  bool operator()(const R* a, const R* b) const {
    if (a->time != b->time) return a->time > b->time;
    return a->seq > b->seq;
  }
};

}  // namespace

EventQueue::~EventQueue() {
  for (Record* r : heap_) r->destroy(r->storage);
}

EventQueue::Record* EventQueue::AllocRecord() {
  if (free_.empty()) AddSlab();
  Record* r = free_.back();
  free_.pop_back();
  return r;
}

void EventQueue::AddSlab() {
  constexpr std::size_t kSlabRecords = 256;
  slabs_.push_back(std::make_unique<Record[]>(kSlabRecords));
  // Keep capacity >= total records so neither FreeRecord nor Push ever
  // reallocates — that is what lets the guard in Step() return records
  // without touching the allocator.
  const std::size_t total = slabs_.size() * kSlabRecords;
  free_.reserve(total);
  heap_.reserve(total);
  Record* base = slabs_.back().get();
  for (std::size_t i = kSlabRecords; i > 0; --i) free_.push_back(base + i - 1);
}

void EventQueue::Push(Record* r) {
  heap_.push_back(r);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

bool EventQueue::Step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Record* r = heap_.back();
  heap_.pop_back();
  now_ = r->time;
  // Return the record to the free list even if the callback throws; the
  // callable itself is destroyed by RunAndDestroy's guard.
  struct FreeOnExit {
    EventQueue* q;
    Record* r;
    ~FreeOnExit() { q->FreeRecord(r); }
  } guard{this, r};
  r->run(r->storage);
  return true;
}

std::size_t EventQueue::Run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && Step()) ++n;
  return n;
}

}  // namespace psra::simnet
