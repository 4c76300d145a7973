// Per-worker virtual-time ledger.
//
// Each simulated worker accumulates Cal_time (computation) and Comm_time
// (communication, including grouping requests) exactly as the paper defines
// system time in Section 5.4: "the sum of the calculation time and the
// communication time".
#pragma once

#include <cstdint>
#include <vector>

#include "simnet/cost_model.hpp"

namespace psra::engine {

struct WorkerTimes {
  simnet::VirtualTime cal_time = 0.0;
  simnet::VirtualTime comm_time = 0.0;
  /// The worker's running clock (when it becomes free).
  simnet::VirtualTime clock = 0.0;

  simnet::VirtualTime SystemTime() const { return cal_time + comm_time; }
};

class TimeLedger {
 public:
  explicit TimeLedger(std::size_t num_workers);

  std::size_t size() const { return workers_.size(); }
  WorkerTimes& operator[](std::size_t i);
  const WorkerTimes& operator[](std::size_t i) const;

  /// Advances worker i's clock by `dt` and books it as computation.
  void ChargeCompute(std::size_t i, simnet::VirtualTime dt);
  /// Advances worker i's clock by `dt` and books it as communication.
  void ChargeComm(std::size_t i, simnet::VirtualTime dt);
  /// Books `dt` as communication WITHOUT advancing the clock: the transfer
  /// ran on a dedicated communication thread overlapping computation (the
  /// ADMMLib per-node comm thread).
  void ChargeCommConcurrent(std::size_t i, simnet::VirtualTime dt);
  /// Moves worker i's clock forward to `t` (if later), booking the wait as
  /// communication time (synchronization waits are communication cost in the
  /// paper's accounting).
  void WaitUntil(std::size_t i, simnet::VirtualTime t);
  /// Moves worker i's clock forward to `t` (if later) WITHOUT booking any
  /// time: used for the dead time of a crashed worker, which is neither
  /// computation nor communication in the paper's system-time accounting.
  void SkipUntil(std::size_t i, simnet::VirtualTime t);

  /// Max clock across workers (current virtual makespan).
  simnet::VirtualTime MaxClock() const;
  /// Mean Cal_time / Comm_time across workers (what Figure 6/7 plot).
  simnet::VirtualTime MeanCalTime() const;
  simnet::VirtualTime MeanCommTime() const;

 private:
  std::vector<WorkerTimes> workers_;
};

}  // namespace psra::engine
