#include "admm/registry.hpp"

#include "admm/ad_admm.hpp"
#include "admm/admmlib.hpp"
#include "admm/gadmm.hpp"
#include "admm/psra_hgadmm.hpp"
#include "support/status.hpp"
#include "support/string_util.hpp"

namespace psra::admm {

std::vector<std::string> AlgorithmNames() {
  return {"psra-hgadmm", "psra-hgadmm-ring", "psra-hgadmm-naive",
          "psra-admm",   "hgadmm-nogroup",   "admmlib",
          "ad-admm",     "gadmm",            "q-gadmm"};
}

RunResult RunAlgorithm(const std::string& name, const ClusterConfig& cluster,
                       const ConsensusProblem& problem,
                       const RunOptions& options) {
  const std::string n = ToLower(name);

  auto run_psra = [&](GroupingMode mode, comm::AllreduceKind kind) {
    PsraConfig cfg;
    cfg.cluster = cluster;
    cfg.grouping = mode;
    cfg.allreduce = kind;
    return PsraHgAdmm(cfg).Run(problem, options);
  };

  if (n == "psra-hgadmm") {
    return run_psra(GroupingMode::kDynamicGroups, comm::AllreduceKind::kPsr);
  }
  if (n == "psra-hgadmm-ring") {
    return run_psra(GroupingMode::kDynamicGroups, comm::AllreduceKind::kRing);
  }
  if (n == "psra-hgadmm-naive") {
    return run_psra(GroupingMode::kDynamicGroups, comm::AllreduceKind::kNaive);
  }
  if (n == "psra-admm") {
    return run_psra(GroupingMode::kFlat, comm::AllreduceKind::kPsr);
  }
  if (n == "hgadmm-nogroup") {
    return run_psra(GroupingMode::kHierarchical, comm::AllreduceKind::kPsr);
  }
  if (n == "admmlib") {
    AdmmLibConfig cfg;
    cfg.cluster = cluster;
    return AdmmLib(cfg).Run(problem, options);
  }
  if (n == "ad-admm") {
    AdAdmmConfig cfg;
    cfg.cluster = cluster;
    return AdAdmm(cfg).Run(problem, options);
  }
  if (n == "gadmm") {
    GadmmConfig cfg;
    cfg.cluster = cluster;
    return Gadmm(cfg).Run(problem, options);
  }
  if (n == "q-gadmm") {
    GadmmConfig cfg;
    cfg.cluster = cluster;
    cfg.quantization_bits = 8;
    return Gadmm(cfg).Run(problem, options);
  }
  throw InvalidArgument("unknown algorithm: " + name);
}

}  // namespace psra::admm
