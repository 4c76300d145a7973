#include "engine/ledger.hpp"

#include <algorithm>

#include "support/status.hpp"

namespace psra::engine {

TimeLedger::TimeLedger(std::size_t num_workers) : workers_(num_workers) {
  PSRA_REQUIRE(num_workers >= 1, "ledger needs at least one worker");
}

WorkerTimes& TimeLedger::operator[](std::size_t i) {
  PSRA_REQUIRE(i < workers_.size(), "worker index out of range");
  return workers_[i];
}
const WorkerTimes& TimeLedger::operator[](std::size_t i) const {
  PSRA_REQUIRE(i < workers_.size(), "worker index out of range");
  return workers_[i];
}

void TimeLedger::ChargeCompute(std::size_t i, simnet::VirtualTime dt) {
  PSRA_REQUIRE(dt >= 0, "negative compute charge");
  auto& w = (*this)[i];
  w.cal_time += dt;
  w.clock += dt;
}

void TimeLedger::ChargeComm(std::size_t i, simnet::VirtualTime dt) {
  PSRA_REQUIRE(dt >= 0, "negative comm charge");
  auto& w = (*this)[i];
  w.comm_time += dt;
  w.clock += dt;
}

void TimeLedger::ChargeCommConcurrent(std::size_t i, simnet::VirtualTime dt) {
  PSRA_REQUIRE(dt >= 0, "negative comm charge");
  (*this)[i].comm_time += dt;
}

void TimeLedger::WaitUntil(std::size_t i, simnet::VirtualTime t) {
  auto& w = (*this)[i];
  if (t > w.clock) {
    w.comm_time += t - w.clock;
    w.clock = t;
  }
}

void TimeLedger::SkipUntil(std::size_t i, simnet::VirtualTime t) {
  auto& w = (*this)[i];
  w.clock = std::max(w.clock, t);
}

simnet::VirtualTime TimeLedger::MaxClock() const {
  simnet::VirtualTime m = 0.0;
  for (const auto& w : workers_) m = std::max(m, w.clock);
  return m;
}

simnet::VirtualTime TimeLedger::MeanCalTime() const {
  simnet::VirtualTime acc = 0.0;
  for (const auto& w : workers_) acc += w.cal_time;
  return acc / static_cast<double>(workers_.size());
}

simnet::VirtualTime TimeLedger::MeanCommTime() const {
  simnet::VirtualTime acc = 0.0;
  for (const auto& w : workers_) acc += w.comm_time;
  return acc / static_cast<double>(workers_.size());
}

}  // namespace psra::engine
