// PSRA-HGADMM and its ablations (paper Section 4).
//
// One class covers the synchronous (BSP) family; the grouping mode selects
// the paper's variants:
//   kFlat           — PSRA-ADMM: every worker joins one global allreduce
//                     (Section 4.2, no hierarchy).
//   kHierarchical   — hierarchical aggregation but *no* dynamic grouping:
//                     intra-node reduce -> one allreduce over all Leaders ->
//                     intra-node broadcast. This is the "without dynamic
//                     grouping" configuration of Figure 7.
//   kDynamicGroups  — full PSRA-HGADMM: Leaders report to the Group
//                     Generator, which batches them into groups of
//                     `group_threshold`; each group allreduces and computes
//                     a group-consensus z (Section 4.3, Algorithms 1-3).
//
// The allreduce algorithm is pluggable (PSR / Ring / naive) so the PSR
// contribution can be measured in isolation.
#pragma once

#include <string>

#include "admm/common.hpp"
#include "comm/collective.hpp"

namespace psra::admm {

enum class GroupingMode { kFlat, kHierarchical, kDynamicGroups };

std::string GroupingModeName(GroupingMode mode);

struct PsraConfig {
  ClusterConfig cluster;
  GroupingMode grouping = GroupingMode::kDynamicGroups;
  /// Leaders per group; 0 = num_nodes / 2 (the paper's Fig. 5 setting).
  std::uint32_t group_threshold = 0;
  comm::AllreduceKind allreduce = comm::AllreduceKind::kPsr;
  /// Transmit aggregates in sparse (index,value) form; the paper's Section
  /// 4.2 analysis assumes this. Dense mode is kept for ablation.
  bool sparse_comm = true;
  /// Service time of the Group Generator per request (queueing + handling in
  /// the central GG process). This is the "time on node grouping" overhead
  /// the paper observes at small node counts (Section 5.5 / Section 6).
  double gg_service_time_s = 50e-6;
  /// Mixed-precision communication (the technique ADMMLib integrates, and
  /// the Q-GADMM direction the related work quantizes further): inter-node
  /// aggregates are rounded through fp32 before transmission and priced at
  /// 4 bytes per value. Halves inter-node bandwidth at a small, measurable
  /// accuracy cost.
  bool mixed_precision = false;
  /// Communication censoring (COLA-ADMM, paper ref [13]): senders transmit
  /// the *change* of their aggregate since the last transmission, and skip
  /// the round entirely when ||delta||_2 < censor_threshold * decay^k.
  /// Every participant maintains the running sum, so censored rounds cost
  /// nothing on the wire. 0 disables. Only valid with kFlat/kHierarchical
  /// (dynamic groups have no fixed membership to keep a running sum over).
  double censor_threshold = 0.0;
  double censor_decay = 0.97;
};

class PsraHgAdmm {
 public:
  explicit PsraHgAdmm(const PsraConfig& config);

  /// Algorithm label used in traces/benches, e.g. "PSRA-HGADMM(psr)".
  std::string Name() const;

  /// Requires problem.num_workers() == cluster.world_size().
  RunResult Run(const ConsensusProblem& problem,
                const RunOptions& options) const;

 private:
  PsraConfig cfg_;
};

}  // namespace psra::admm
