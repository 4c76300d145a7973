#include "admm/common.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "admm/checkpoint.hpp"
#include "admm/instrument.hpp"
#include "solver/metrics.hpp"
#include "support/rng.hpp"
#include "support/status.hpp"

namespace psra::admm {

double ComputeMultiplier(const ClusterConfig& cluster,
                         const simnet::StragglerModel& stragglers,
                         simnet::Rank worker, std::uint64_t iteration) {
  double mult = stragglers.ComputeMultiplier(worker, iteration);
  if (cluster.compute_jitter > 0.0) {
    Rng base(cluster.seed ^ 0xC0FFEEULL);
    Rng iter_rng = base.Fork(iteration);
    Rng wr = iter_rng.Fork(worker);
    mult *= wr.NextDouble(1.0, 1.0 + cluster.compute_jitter);
  }
  return mult;
}

namespace {

// View bits of WorkerSet::cached_.
constexpr int kViewX = 1, kViewY = 2, kViewW = 4;

// Column block of the base sweeps: 512 doubles of each of a base's vectors
// stay in L1 while several workers read them. A multiple of 4, as
// linalg::BlockedNorms requires.
constexpr std::size_t kBlock = 512;
// Columns per pool task of a base's z/y update.
constexpr std::size_t kPoolBlock = 4 * kBlock;
// Workers per batch of the consensus step's norm pass.
constexpr std::size_t kNormBatch = 4;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// Entries with |v| > 0: what a sparse message of v carries.
std::size_t Nonzeros(std::span<const double> v) {
  std::size_t nnz = 0;
  for (const double e : v) nnz += std::fabs(e) > 0.0 ? 1 : 0;
  return nnz;
}

}  // namespace

WorkerSet::WorkerSet(const ConsensusProblem* problem,
                     const RunOptions* options)
    : problem_(problem), options_(options), rho_(problem->rho) {
  PSRA_REQUIRE(problem_ != nullptr && options_ != nullptr,
               "null problem/options");
  PSRA_REQUIRE(rho_ > 0.0, "rho must be positive");
  const auto n = static_cast<std::size_t>(problem_->num_workers());
  local_.reserve(n);
  xo_.resize(n);
  yo_.resize(n);
  wo_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    local_.emplace_back(&problem_->shards[i], options_->local_solver,
                        problem_->rho);
    const auto di = static_cast<std::size_t>(local_[i].occupied());
    xo_[i].assign(di, 0.0);
    yo_[i].assign(di, 0.0);
    wo_[i].assign(di, 0.0);
  }
  // Every worker starts from the all-zero state: one base for all.
  const std::size_t b0 = Acquire();
  bases_[b0].refs = n;
  base_of_.assign(n, b0);
  everyone_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    everyone_[i] = static_cast<simnet::Rank>(i);
  }
  dirty_.assign(n, 0);
  view_x_.resize(n);
  view_y_.resize(n);
  view_w_.resize(n);
  cached_.assign(n, 0);
  unions_.resize(n);
  norm_primal_.assign(n, 0.0);
  norm_x_.assign(n, 0.0);
  norm_y_.assign(n, 0.0);
  norms_fresh_.assign(n, 0);
  stale_.reserve(n);
  xbases_.reserve(n);
  pairs_.reserve(n);
  pair_ranks_.reserve(n);
}

template <typename Body>
void WorkerSet::ForEach(std::size_t count, Body&& body) const {
  if (options_->pool != nullptr && count > 1) {
    options_->pool->ParallelFor(count, body);
  } else {
    engine::SerialFor(count, body);
  }
}

// ---- Bases -----------------------------------------------------------------

std::size_t WorkerSet::Acquire() {
  std::size_t b;
  if (!free_.empty()) {
    b = free_.back();
    free_.pop_back();
    PSRA_CHECK(bases_[b].refs == 0, "free base still referenced");
  } else {
    b = bases_.size();
    bases_.emplace_back();
    const auto d = static_cast<std::size_t>(dim());
    bases_[b].x.assign(d, 0.0);
    bases_[b].y.assign(d, 0.0);
    bases_[b].w.assign(d, 0.0);
    bases_[b].z.assign(d, 0.0);
  }
  if (count_.size() < bases_.size()) {
    count_.resize(bases_.size(), 0);
    moved_to_.resize(bases_.size(), 0);
    pair_of_.resize(bases_.size(), 0);
  }
  return b;
}

void WorkerSet::Unref(std::size_t b) {
  PSRA_CHECK(bases_[b].refs > 0, "base released twice");
  if (--bases_[b].refs == 0) free_.push_back(b);
}

std::size_t WorkerSet::Detach(std::size_t i) {
  const std::size_t b = base_of_[i];
  if (bases_[b].refs == 1) return b;
  const std::size_t nb = Acquire();
  bases_[nb].refs = 1;
  Unref(b);
  base_of_[i] = nb;
  return nb;
}

std::size_t WorkerSet::MakePrivate(std::size_t i) {
  const std::size_t b = base_of_[i];
  const std::size_t nb = Detach(i);
  if (nb == b) return b;
  Base& dst = bases_[nb];
  const Base& src = bases_[b];
  dst.x = src.x;
  dst.y = src.y;
  dst.w = src.w;
  dst.z = src.z;
  dst.w_nnz = src.w_nnz;
  return nb;
}

void WorkerSet::Sync(std::size_t i) {
  if (dirty_[i] == 0) return;
  const Base& b = bases_[base_of_[i]];
  const auto cols = local_[i].columns();
  for (std::size_t k = 0; k < cols.size(); ++k) {
    const auto j = static_cast<std::size_t>(cols[k]);
    xo_[i][k] = b.x[j];
    yo_[i][k] = b.y[j];
  }
  dirty_[i] = 0;
}

void WorkerSet::SetOverlayFromBase(std::size_t i) {
  const Base& b = bases_[base_of_[i]];
  const auto cols = local_[i].columns();
  for (std::size_t k = 0; k < cols.size(); ++k) {
    const auto j = static_cast<std::size_t>(cols[k]);
    xo_[i][k] = b.x[j];
    yo_[i][k] = b.y[j];
    wo_[i][k] = b.w[j];
  }
  dirty_[i] = 0;
  Changed(i);
}

// ---- Views -----------------------------------------------------------------

const linalg::DenseVector& WorkerSet::View(std::size_t i, int which) const {
  PSRA_REQUIRE(i < base_of_.size(), "worker index out of range");
  const Base& b = bases_[base_of_[i]];
  if (dirty_[i] != 0 && which != kViewW) return which == kViewX ? b.x : b.y;
  linalg::DenseVector& view =
      which == kViewX ? view_x_[i] : (which == kViewY ? view_y_[i] : view_w_[i]);
  if ((cached_[i] & which) != 0) return view;
  const linalg::DenseVector& full =
      which == kViewX ? b.x : (which == kViewY ? b.y : b.w);
  const linalg::DenseVector& over =
      which == kViewX ? xo_[i] : (which == kViewY ? yo_[i] : wo_[i]);
  view = full;
  const auto cols = local_[i].columns();
  for (std::size_t k = 0; k < cols.size(); ++k) {
    view[static_cast<std::size_t>(cols[k])] = over[k];
  }
  cached_[i] |= static_cast<unsigned char>(which);
  return view;
}

const linalg::DenseVector& WorkerSet::x(std::size_t i) const {
  return View(i, kViewX);
}
const linalg::DenseVector& WorkerSet::y(std::size_t i) const {
  return View(i, kViewY);
}
const linalg::DenseVector& WorkerSet::w(std::size_t i) const {
  return View(i, kViewW);
}
const linalg::DenseVector& WorkerSet::z(std::size_t i) const {
  PSRA_REQUIRE(i < base_of_.size(), "worker index out of range");
  return bases_[base_of_[i]].z;
}

std::span<const linalg::DenseVector> WorkerSet::w_all() const {
  ForEach(base_of_.size(), [&](std::size_t i) { (void)View(i, kViewW); });
  return view_w_;
}

linalg::DenseVector& WorkerSet::x(std::size_t i) {
  PSRA_REQUIRE(i < base_of_.size(), "worker index out of range");
  Base& b = bases_[MakePrivate(i)];
  if (dirty_[i] == 0) {
    const auto cols = local_[i].columns();
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const auto j = static_cast<std::size_t>(cols[k]);
      b.x[j] = xo_[i][k];
      b.y[j] = yo_[i][k];
    }
    dirty_[i] = 1;
  }
  Changed(i);
  return b.x;
}

linalg::DenseVector& WorkerSet::y(std::size_t i) {
  (void)x(i);
  return bases_[base_of_[i]].y;
}

linalg::DenseVector& WorkerSet::z(std::size_t i) {
  PSRA_REQUIRE(i < base_of_.size(), "worker index out of range");
  Base& b = bases_[MakePrivate(i)];
  Changed(i);
  return b.z;
}

void WorkerSet::CopyState(std::size_t i, linalg::DenseVector& x,
                          linalg::DenseVector& y,
                          linalg::DenseVector& z) const {
  const Base& b = bases_[base_of_[i]];
  x = b.x;
  y = b.y;
  z = b.z;
  if (dirty_[i] != 0) return;
  const auto cols = local_[i].columns();
  for (std::size_t k = 0; k < cols.size(); ++k) {
    const auto j = static_cast<std::size_t>(cols[k]);
    x[j] = xo_[i][k];
    y[j] = yo_[i][k];
  }
}

void WorkerSet::CopyW(std::size_t i, linalg::DenseVector& out) const {
  PSRA_REQUIRE(i < base_of_.size(), "worker index out of range");
  out = bases_[base_of_[i]].w;
  const auto cols = local_[i].columns();
  for (std::size_t k = 0; k < cols.size(); ++k) {
    out[static_cast<std::size_t>(cols[k])] = wo_[i][k];
  }
}

std::size_t WorkerSet::WNonzeros(std::size_t i) const {
  PSRA_REQUIRE(i < base_of_.size(), "worker index out of range");
  const Base& b = bases_[base_of_[i]];
  const auto cols = local_[i].columns();
  std::size_t nnz = b.w_nnz;
  for (std::size_t k = 0; k < cols.size(); ++k) {
    nnz += std::fabs(wo_[i][k]) > 0.0 ? 1 : 0;
    nnz -= std::fabs(b.w[static_cast<std::size_t>(cols[k])]) > 0.0 ? 1 : 0;
  }
  return nnz;
}

// ---- x-update --------------------------------------------------------------

// Moves the workers in `ranks` onto the bases their x-update writes: a base
// all of whose workers are in `ranks` is updated in place; the others' share
// is split onto a new base that starts from the old one's y and z, so the
// workers left behind keep their x and w. Fills xbases_.
void WorkerSet::PlanX(std::span<const simnet::Rank> ranks) {
  xbases_.clear();
  for (const simnet::Rank r : ranks) {
    const auto i = static_cast<std::size_t>(r);
    PSRA_REQUIRE(i < base_of_.size(), "worker index out of range");
    Sync(i);
    if (count_[base_of_[i]]++ == 0) xbases_.push_back(base_of_[i]);
  }
  for (std::size_t& b : xbases_) {
    const std::size_t n = count_[b];
    count_[b] = 0;
    moved_to_[b] = b;
    if (n == bases_[b].refs) continue;
    const std::size_t nb = Acquire();
    bases_[nb].y = bases_[b].y;
    bases_[nb].z = bases_[b].z;
    bases_[nb].refs = n;
    bases_[b].refs -= n;
    moved_to_[b] = nb;
    b = nb;
  }
  for (const simnet::Rank r : ranks) {
    const auto i = static_cast<std::size_t>(r);
    base_of_[i] = moved_to_[base_of_[i]];
  }
}

// The closed form of eq. 4 on every column (x = z - y / rho) and eq. 8 on
// it, for all workers of base b at once; counts w's nonzeros for the sparse
// node reduce.
void WorkerSet::BaseXW(std::size_t b) {
  Base& base = bases_[b];
  const double rho = rho_;
  std::size_t nnz = 0;
  for (std::size_t j = 0; j < base.x.size(); ++j) {
    const double xj = base.z[j] - base.y[j] / rho;
    const double wj = base.y[j] + rho * xj;
    base.x[j] = xj;
    base.w[j] = wj;
    nnz += std::fabs(wj) > 0.0 ? 1 : 0;
  }
  base.w_nnz = nnz;
}

// TRON on the worker's columns and eq. 8 there. The flops are the
// full-width step's: TRON's, the closed form's 2 per untouched column and
// WLocal's 2 per column, in that order.
double WorkerSet::SolveOverlay(std::size_t i) {
  solver::FlopCounter flops;
  local_[i].SolveColumns(xo_[i], yo_[i], bases_[base_of_[i]].z, rho_,
                         options_->tron, &flops);
  solver::WLocal(rho_, xo_[i], yo_[i], wo_[i], /*flops=*/nullptr);
  flops.Add(2.0 * static_cast<double>(dim()));
  Changed(i);
  return flops.flops;
}

double WorkerSet::XWStep(std::size_t i) {
  const simnet::Rank r[] = {static_cast<simnet::Rank>(i)};
  PlanX(r);
  for (const std::size_t b : xbases_) BaseXW(b);
  return SolveOverlay(i);
}

void WorkerSet::XWStepAll(std::vector<double>& flops_out,
                          std::vector<double>* wall_out) {
  XWStepAll(everyone_, flops_out, wall_out);
}

void WorkerSet::XWStepAll(std::span<const simnet::Rank> ranks,
                          std::vector<double>& flops_out,
                          std::vector<double>* wall_out) {
  PSRA_REQUIRE(flops_out.size() == size(), "flops_out size mismatch");
  PSRA_REQUIRE(wall_out == nullptr || wall_out->size() == size(),
               "wall_out size mismatch");
  PlanX(ranks);
  // The bases' closed forms and the workers' overlay solves touch disjoint
  // state (a solve reads only its base's z), so they share one loop; the
  // bases come first so a pool starts on them.
  const std::size_t nb = xbases_.size();
  ForEach(nb + ranks.size(), [&](std::size_t k) {
    if (k < nb) {
      BaseXW(xbases_[k]);
      return;
    }
    const auto i = static_cast<std::size_t>(ranks[k - nb]);
    flops_out[i] = TimedStep(wall_out, i, [&] { return SolveOverlay(i); });
  });
}

// ---- Restores --------------------------------------------------------------

void WorkerSet::RestoreWorker(std::size_t i, const linalg::DenseVector& x,
                              const linalg::DenseVector& y,
                              const linalg::DenseVector& z) {
  PSRA_REQUIRE(i < base_of_.size(), "worker index out of range");
  const auto d = static_cast<std::size_t>(dim());
  PSRA_REQUIRE(x.size() == d && y.size() == d && z.size() == d,
               "checkpoint dimension mismatch");
  Base& b = bases_[Detach(i)];
  b.x = x;
  b.y = y;
  b.z = z;
  solver::WLocal(rho_, b.x, b.y, b.w, /*flops=*/nullptr);
  b.w_nnz = Nonzeros(b.w);
  SetOverlayFromBase(i);
}

void WorkerSet::RestoreAll(std::span<const WorkerCheckpoint> workers) {
  const std::size_t n = base_of_.size();
  const auto d = static_cast<std::size_t>(dim());
  PSRA_REQUIRE(workers.size() == n,
               "warm-start checkpoint holds a different worker count");
  for (const WorkerCheckpoint& wc : workers) {
    PSRA_REQUIRE(wc.x.size() == d && wc.y.size() == d && wc.z.size() == d,
                 "warm-start checkpoint dimension mismatch");
  }
  // Candidate shared base: worker 0's vectors, each column worker 0 touches
  // taken from the first worker that leaves it untouched. Every worker must
  // then match it bitwise on z and on its own untouched columns.
  linalg::DenseVector bx = workers[0].x, by = workers[0].y;
  std::vector<char> owned(d, 1);
  for (const auto j : local_[0].columns()) owned[static_cast<std::size_t>(j)] = 0;
  bool shared = true;
  for (std::size_t i = 0; i < n && shared; ++i) {
    const WorkerCheckpoint& wc = workers[i];
    const auto cols = local_[i].columns();
    std::size_t p = 0;
    for (std::size_t j = 0; j < d && shared; ++j) {
      shared = SameBits(wc.z[j], workers[0].z[j]);
      if (p < cols.size() && cols[p] == j) {
        ++p;
        continue;
      }
      if (owned[j] == 0) {
        bx[j] = wc.x[j];
        by[j] = wc.y[j];
        owned[j] = 1;
      }
      shared = shared && SameBits(wc.x[j], bx[j]) && SameBits(wc.y[j], by[j]);
    }
  }
  if (!shared) {
    for (std::size_t i = 0; i < n; ++i) {
      RestoreWorker(i, workers[i].x, workers[i].y, workers[i].z);
    }
    return;
  }
  for (std::size_t b = 0; b < bases_.size(); ++b) {
    if (bases_[b].refs != 0) free_.push_back(b);
    bases_[b].refs = 0;
  }
  const std::size_t b = Acquire();
  Base& base = bases_[b];
  base.x = std::move(bx);
  base.y = std::move(by);
  base.z = workers[0].z;
  solver::WLocal(rho_, base.x, base.y, base.w, /*flops=*/nullptr);
  base.w_nnz = Nonzeros(base.w);
  base.refs = n;
  for (std::size_t i = 0; i < n; ++i) {
    base_of_[i] = b;
    const auto cols = local_[i].columns();
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const auto j = static_cast<std::size_t>(cols[k]);
      xo_[i][k] = workers[i].x[j];
      yo_[i][k] = workers[i].y[j];
    }
    solver::WLocal(rho_, xo_[i], yo_[i], wo_[i], /*flops=*/nullptr);
    dirty_[i] = 0;
    Changed(i);
  }
}

// ---- Consensus step --------------------------------------------------------

void WorkerSet::ZYStepAll(std::span<const simnet::Rank> ranks,
                          std::span<const double> W,
                          std::uint64_t num_contributors,
                          std::vector<double>& flops_out,
                          std::vector<double>* wall_out) {
  const ConsensusGroup group{ranks, W, num_contributors};
  ZYStepGroups({&group, 1}, flops_out, wall_out);
}

void WorkerSet::ZYStepGroups(std::span<const ConsensusGroup> groups,
                             std::vector<double>& flops_out,
                             std::vector<double>* wall_out) {
  PSRA_REQUIRE(flops_out.size() == size(), "flops_out size mismatch");
  PSRA_REQUIRE(wall_out == nullptr || wall_out->size() == size(),
               "wall_out size mismatch");
  // Plan: one pair per (old base, group), in group order. A pair holding
  // every worker of its base updates that base in place; any other pair
  // starts a new base from a copy of the old one's x, w and y.
  pairs_.clear();
  pair_ranks_.clear();
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const std::size_t first = pairs_.size();
    for (const simnet::Rank r : groups[g].ranks) {
      const auto i = static_cast<std::size_t>(r);
      PSRA_REQUIRE(i < base_of_.size(), "worker index out of range");
      Sync(i);
      const std::size_t b = base_of_[i];
      if (count_[b] == 0) {
        pair_of_[b] = pairs_.size();
        pairs_.push_back({b, b, g, 0});
      }
      ++count_[b];
      ++pairs_[pair_of_[b]].count;
      pair_ranks_.push_back(r);
    }
    for (std::size_t k = first; k < pairs_.size(); ++k) count_[pairs_[k].src] = 0;
  }
  for (Pair& pr : pairs_) {
    if (pr.count != bases_[pr.src].refs) pr.dst = Acquire();
  }
  for (Pair& pr : pairs_) {
    if (pr.dst == pr.src) continue;
    bases_[pr.dst].refs = pr.count;
    bases_[pr.src].refs -= pr.count;
  }
  // Workers move to their pair's base; pairs are in group order, so
  // pair_of_ maps each old base to its pair within one group at a time.
  for (std::size_t g = 0, k = 0; g < groups.size(); ++g) {
    for (; k < pairs_.size() && pairs_[k].group == g; ++k) {
      pair_of_[pairs_[k].src] = k;
    }
    for (const simnet::Rank r : groups[g].ranks) {
      const auto i = static_cast<std::size_t>(r);
      base_of_[i] = pairs_[pair_of_[base_of_[i]]].dst;
    }
  }

  // Each pair computes its group's z on its base (bitwise the same z for
  // every pair of a group) and y_b += rho (x_b - z) there, in column blocks
  // so one base spreads over the pool. A new base first copies the old
  // one's x, w and y.
  const auto d = static_cast<std::size_t>(dim());
  const std::size_t blocks = (d + kPoolBlock - 1) / kPoolBlock;
  for (const Pair& pr : pairs_) {
    if (pr.dst != pr.src) bases_[pr.dst].w_nnz = bases_[pr.src].w_nnz;
  }
  ForEach(pairs_.size() * blocks, [&](std::size_t item) {
    const Pair& pr = pairs_[item / blocks];
    const std::size_t c0 = (item % blocks) * kPoolBlock;
    const std::size_t len = std::min(kPoolBlock, d - c0);
    Base& dst = bases_[pr.dst];
    if (pr.dst != pr.src) {
      const Base& src = bases_[pr.src];
      std::copy_n(src.x.begin() + c0, len, dst.x.begin() + c0);
      std::copy_n(src.w.begin() + c0, len, dst.w.begin() + c0);
      std::copy_n(src.y.begin() + c0, len, dst.y.begin() + c0);
    }
    solver::ZUpdateConfig zcfg;
    zcfg.regularizer = solver::Regularizer::kL1;
    zcfg.lambda = problem_->lambda;
    zcfg.rho = rho_;
    zcfg.num_workers = groups[pr.group].contributors;
    solver::ZYUpdate(zcfg, groups[pr.group].W.subspan(c0, len),
                     std::span<const double>(dst.x).subspan(c0, len),
                     std::span<double>(dst.z).subspan(c0, len),
                     std::span<double>(dst.y).subspan(c0, len));
  });
  // An old base whose workers all moved is freed once, however many pairs
  // it fed (count_ marks it meanwhile).
  for (const Pair& pr : pairs_) {
    if (pr.dst == pr.src || bases_[pr.src].refs != 0 || count_[pr.src] != 0) {
      continue;
    }
    count_[pr.src] = 1;
    free_.push_back(pr.src);
  }
  for (const Pair& pr : pairs_) count_[pr.src] = 0;

  // Each worker: y on its overlay, then its residual norms over the full
  // width. Workers go in batches, and a batch walks the columns block by
  // block, so each block of a shared base is read once per batch. The flops
  // are ZUpdate's and YUpdate's full-width charges; a batch's host seconds
  // are shared evenly among its workers.
  const double flops = 6.0 * static_cast<double>(d);
  const std::size_t n = pair_ranks_.size();
  ForEach((n + kNormBatch - 1) / kNormBatch, [&](std::size_t batch) {
    const double t0 =
        wall_out != nullptr ? engine::ThreadPool::ThreadSeconds() : 0.0;
    const std::size_t k0 = batch * kNormBatch;
    const std::size_t k1 = std::min(n, k0 + kNormBatch);
    for (std::size_t k = k0; k < k1; ++k) {
      const auto i = static_cast<std::size_t>(pair_ranks_[k]);
      const Base& b = bases_[base_of_[i]];
      const auto cols = local_[i].columns();
      auto& xo = xo_[i];
      auto& yo = yo_[i];
      for (std::size_t c = 0; c < cols.size(); ++c) {
        yo[c] += rho_ * (xo[c] - b.z[static_cast<std::size_t>(cols[c])]);
      }
      Changed(i);
    }
    double scratch[2 * kBlock];
    linalg::BlockedNorms sums[kNormBatch];
    std::size_t cursor[kNormBatch] = {};
    for (std::size_t c0 = 0; c0 < d; c0 += kBlock) {
      const std::size_t c1 = std::min(d, c0 + kBlock);
      for (std::size_t k = k0; k < k1; ++k) {
        AddNormBlock(static_cast<std::size_t>(pair_ranks_[k]), c0, c1,
                     cursor[k - k0], scratch, sums[k - k0]);
      }
    }
    const double share =
        wall_out != nullptr ? (engine::ThreadPool::ThreadSeconds() - t0) /
                                  static_cast<double>(k1 - k0)
                            : 0.0;
    for (std::size_t k = k0; k < k1; ++k) {
      const auto i = static_cast<std::size_t>(pair_ranks_[k]);
      sums[k - k0].Finish(norm_primal_[i], norm_x_[i], norm_y_[i]);
      norms_fresh_[i] = 1;
      flops_out[i] = flops;
      if (wall_out != nullptr) (*wall_out)[i] = share;
    }
  });
}

double WorkerSet::AdoptZ(std::size_t i, std::span<const double> z) {
  PSRA_REQUIRE(i < base_of_.size(), "worker index out of range");
  PSRA_REQUIRE(z.size() == dim(), "z dimension mismatch");
  Sync(i);
  Base& b = bases_[MakePrivate(i)];
  std::copy(z.begin(), z.end(), b.z.begin());
  solver::FlopCounter flops;
  solver::YUpdate(rho_, b.x, b.z, b.y, &flops);
  const auto cols = local_[i].columns();
  for (std::size_t k = 0; k < cols.size(); ++k) {
    yo_[i][k] += rho_ * (xo_[i][k] - b.z[static_cast<std::size_t>(cols[k])]);
  }
  Changed(i);
  return flops.flops;
}

// ---- Node sum ----------------------------------------------------------------

WorkerSet::NodeUnion& WorkerSet::UnionOf(
    std::size_t slot, std::span<const simnet::Rank> members) const {
  PSRA_REQUIRE(slot < unions_.size(), "node slot out of range");
  NodeUnion& u = unions_[slot];
  if (std::equal(u.members.begin(), u.members.end(), members.begin(),
                 members.end())) {
    return u;
  }
  // Rebuilt only when the member set changes (a worker went down or came
  // back), so steady-state iterations allocate nothing.
  u.members.assign(members.begin(), members.end());
  u.cols.clear();
  for (const simnet::Rank r : members) {
    const auto cols = local_[static_cast<std::size_t>(r)].columns();
    u.cols.insert(u.cols.end(), cols.begin(), cols.end());
  }
  std::sort(u.cols.begin(), u.cols.end());
  u.cols.erase(std::unique(u.cols.begin(), u.cols.end()), u.cols.end());
  u.pos.clear();
  for (const simnet::Rank r : members) {
    for (const auto j : local_[static_cast<std::size_t>(r)].columns()) {
      u.pos.push_back(static_cast<std::uint32_t>(
          std::lower_bound(u.cols.begin(), u.cols.end(), j) - u.cols.begin()));
    }
  }
  u.acc.resize(u.cols.size());
  u.vals.resize(u.cols.size());
  u.base_vals.resize(u.cols.size());
  return u;
}

void WorkerSet::NodeSumW(std::size_t slot,
                         std::span<const simnet::Rank> members,
                         linalg::DenseVector& out,
                         std::span<std::size_t> nnz) const {
  PSRA_REQUIRE(!members.empty() && nnz.size() == members.size(),
               "one nonzero count per member required");
  const auto d = static_cast<std::size_t>(dim());
  NodeUnion& u = UnionOf(slot, members);
  out.resize(d);
  // Every column through the members' bases, chunked so the chunk of each
  // base stays in L1 across the members.
  for (std::size_t c0 = 0; c0 < d; c0 += kBlock) {
    const std::size_t c1 = std::min(d, c0 + kBlock);
    for (std::size_t j = c0; j < c1; ++j) out[j] = 0.0;
    for (const simnet::Rank r : members) {
      const double* w = bases_[base_of_[static_cast<std::size_t>(r)]].w.data();
      for (std::size_t j = c0; j < c1; ++j) out[j] += w[j];
    }
  }
  // Then the columns some member touches, summed again member by member
  // into acc: each member's values there are its base's with its overlay
  // scattered in. A member's nonzero count is its base's, with those
  // columns recounted.
  const std::size_t nu = u.cols.size();
  std::fill(u.acc.begin(), u.acc.end(), 0.0);
  const std::uint32_t* pos = u.pos.data();
  std::size_t gathered = bases_.size();  // base whose w base_vals holds
  std::size_t base_nnz = 0;
  for (std::size_t g = 0; g < members.size(); ++g) {
    const auto i = static_cast<std::size_t>(members[g]);
    const Base& b = bases_[base_of_[i]];
    if (base_of_[i] != gathered) {
      gathered = base_of_[i];
      base_nnz = 0;
      for (std::size_t c = 0; c < nu; ++c) {
        const double v = b.w[static_cast<std::size_t>(u.cols[c])];
        u.base_vals[c] = v;
        base_nnz += std::fabs(v) > 0.0 ? 1 : 0;
      }
    }
    std::copy(u.base_vals.begin(), u.base_vals.end(), u.vals.begin());
    const auto& wo = wo_[i];
    for (std::size_t k = 0; k < wo.size(); ++k) u.vals[pos[k]] = wo[k];
    pos += wo.size();
    std::size_t own_nnz = 0;
    for (std::size_t c = 0; c < nu; ++c) {
      u.acc[c] += u.vals[c];
      own_nnz += std::fabs(u.vals[c]) > 0.0 ? 1 : 0;
    }
    nnz[g] = b.w_nnz - base_nnz + own_nnz;
  }
  for (std::size_t c = 0; c < nu; ++c) {
    out[static_cast<std::size_t>(u.cols[c])] = u.acc[c];
  }
}

void WorkerSet::SetRho(double rho) {
  PSRA_REQUIRE(rho > 0.0, "rho must be positive");
  rho_ = rho;
}

// ---- Residuals -------------------------------------------------------------

// Adds columns [c0, c1) of worker i's residual norms to `sums`: that block
// of its base's x and y, copied into `scratch` (2 * kBlock doubles) with
// the worker's overlay entries from `cursor` on written over them. Only the
// scatter's trip count depends on the shard, so the pass stays free of
// data-dependent branches.
void WorkerSet::AddNormBlock(std::size_t i, std::size_t c0, std::size_t c1,
                             std::size_t& cursor, double* scratch,
                             linalg::BlockedNorms& sums) const {
  const Base& b = bases_[base_of_[i]];
  const std::size_t len = c1 - c0;
  double* xb = scratch;
  double* yb = scratch + kBlock;
  std::copy_n(b.x.data() + c0, len, xb);
  std::copy_n(b.y.data() + c0, len, yb);
  if (dirty_[i] == 0) {  // a dirty base already holds the worker's x and y
    const auto cols = local_[i].columns();
    const double* xo = xo_[i].data();
    const double* yo = yo_[i].data();
    std::size_t p = cursor;
    for (; p < cols.size() && cols[p] < c1; ++p) {
      xb[cols[p] - c0] = xo[p];
      yb[cols[p] - c0] = yo[p];
    }
    cursor = p;
  }
  sums.Add({xb, len}, {b.z.data() + c0, len}, {yb, len});
}

void WorkerSet::WorkerNorms(std::size_t i) const {
  const auto d = static_cast<std::size_t>(dim());
  double scratch[2 * kBlock];
  linalg::BlockedNorms sums;
  std::size_t cursor = 0;
  for (std::size_t c0 = 0; c0 < d; c0 += kBlock) {
    AddNormBlock(i, c0, std::min(d, c0 + kBlock), cursor, scratch, sums);
  }
  sums.Finish(norm_primal_[i], norm_x_[i], norm_y_[i]);
  norms_fresh_[i] = 1;
}

WorkerSet::Residuals WorkerSet::ComputeResiduals(
    std::span<const double> z_prev_mean) const {
  PSRA_REQUIRE(z_prev_mean.size() == dim(), "z_prev dimension mismatch");
  const std::size_t n = base_of_.size();

  // Re-stream only the workers whose cached norms are stale. Per-worker
  // norms are independent, so they can run on the pool (when there is more
  // than one); the squares are then folded serially in ascending worker
  // order, which keeps the sums bitwise-identical to a fully serial pass.
  stale_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (norms_fresh_[i] == 0) stale_.push_back(i);
  }
  ForEach(stale_.size(), [&](std::size_t k) { WorkerNorms(stale_[k]); });

  Residuals res;
  double primal_sq = 0.0, x_sq = 0.0, y_sq = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    primal_sq += norm_primal_[i] * norm_primal_[i];
    x_sq += norm_x_[i] * norm_x_[i];
    y_sq += norm_y_[i] * norm_y_[i];
  }
  MeanZInto(mean_scratch_);
  const double sqrt_n = std::sqrt(static_cast<double>(n));
  res.primal = std::sqrt(primal_sq);
  res.dual = rho_ * sqrt_n * linalg::DistanceL2(mean_scratch_, z_prev_mean);
  res.x_norm = std::sqrt(x_sq);
  res.y_norm = std::sqrt(y_sq);
  res.z_norm = sqrt_n * linalg::Norm2(mean_scratch_);
  return res;
}

WorkerSet::Residuals WorkerSet::ComputeResiduals(
    linalg::DenseVector* z_mean) const {
  PSRA_REQUIRE(z_mean != nullptr, "null consensus mean");
  const Residuals res = ComputeResiduals(std::span<const double>(*z_mean));
  z_mean->swap(mean_scratch_);  // this iteration's mean, no copy
  return res;
}

bool WorkerSet::ShouldStop(const StoppingConfig& cfg, const Residuals& res,
                           std::uint64_t num_workers, std::uint64_t dim) {
  if (!cfg.enabled) return false;
  const double scale =
      std::sqrt(static_cast<double>(num_workers) * static_cast<double>(dim));
  const double eps_primal =
      scale * cfg.eps_abs +
      cfg.eps_rel * std::max(res.x_norm, res.z_norm);
  const double eps_dual = scale * cfg.eps_abs + cfg.eps_rel * res.y_norm;
  return res.primal <= eps_primal && res.dual <= eps_dual;
}

double WorkerSet::MaybeAdaptRho(const AdaptiveRhoConfig& cfg,
                                const Residuals& res) {
  if (!cfg.enabled) return rho_;
  double rho = rho_;
  if (res.primal > cfg.mu * res.dual) {
    rho *= cfg.tau;
  } else if (res.dual > cfg.mu * res.primal) {
    rho /= cfg.tau;
  }
  rho = std::clamp(rho, cfg.rho_min, cfg.rho_max);
  if (rho != rho_) SetRho(rho);
  return rho_;
}

void WorkerSet::MeanZInto(linalg::DenseVector& out) const {
  const auto d = static_cast<std::size_t>(dim());
  const std::size_t n = base_of_.size();
  const double inv_n = 1.0 / static_cast<double>(n);
  out.resize(d);
  // Chunk over coordinates, never over workers: coordinate j always
  // accumulates z_0[j], z_1[j], ... in that order, so any chunking (and thus
  // any pool size) yields the bitwise-identical mean. Within a sub-chunk
  // small enough for L1 the workers form the outer loop, so a base that
  // several workers share is read from cache after the first.
  auto chunk = [&](std::size_t begin, std::size_t end) {
    for (std::size_t c0 = begin; c0 < end; c0 += kBlock) {
      const std::size_t c1 = std::min(end, c0 + kBlock);
      const double* z0 = bases_[base_of_[0]].z.data();
      for (std::size_t j = c0; j < c1; ++j) out[j] = z0[j];
      for (std::size_t k = 1; k < n; ++k) {
        const double* zk = bases_[base_of_[k]].z.data();
        for (std::size_t j = c0; j < c1; ++j) out[j] += zk[j];
      }
      for (std::size_t j = c0; j < c1; ++j) out[j] *= inv_n;
    }
  };
  if (options_->pool != nullptr) {
    options_->pool->ParallelFor(d, /*grain=*/2048, chunk);
  } else {
    chunk(0, d);
  }
}

RunEpilogue::RunEpilogue(
    EngineObs& eo, const ConsensusProblem& problem, const RunOptions& options,
    RunResult& result, ResidualSeries residuals,
    std::initializer_list<const std::uint64_t*> byte_counters)
    : eo_(eo),
      problem_(problem),
      options_(options),
      result_(result),
      bytes_(eo, "ts.bytes", byte_counters) {
  if (!eo_.on()) return;
  objective_ = eo_.Series("ts.objective");
  rho_ = eo_.Series("ts.rho");
  if (residuals != ResidualSeries::kNone) {
    primal_ = eo_.Series("ts.primal_residual");
  }
  if (residuals == ResidualSeries::kPrimalDual) {
    dual_ = eo_.Series("ts.dual_residual");
  }
}

void RunEpilogue::Row(std::uint64_t iteration, const linalg::DenseVector& model,
                      double rho, double primal, double dual) {
  row_.iteration = iteration;
  row_.rho = rho;
  row_.primal_residual = primal;
  row_.dual_residual = dual;
  model_ = &model;
  row_has_objective_ = eo_.on();
  // Samples come from virtual-time state and hoisted counters only, so the
  // timeline is bitwise-identical across pool sizes; appends are plain
  // stores into pooled chunks (0 allocs/iter, pinned by test_alloc).
  if (eo_.on()) {
    row_.objective =
        solver::GlobalObjective(problem_.train, model, problem_.lambda);
    // Every hoisted series receives exactly one sample per row: the core
    // here, the engine's own series right after Row returns.
    eo_.timeline().BeginIteration(iteration);
    objective_->Append(row_.objective);
    rho_->Append(rho);
    bytes_.Append();
    if (primal_ != nullptr) primal_->Append(primal);
    if (dual_ != nullptr) dual_->Append(dual);
  }
  if (options_.progress != nullptr) {
    options_.progress->Report(
        {iteration, options_.max_iterations, primal, dual, rho});
  }
}

void RunEpilogue::Record(const engine::TimeLedger& ledger) {
  const std::uint64_t it = row_.iteration;
  if (!options_.record_trace ||
      (it % options_.eval_every != 0 && it != options_.max_iterations)) {
    return;
  }
  IterationRecord rec = row_;
  if (!row_has_objective_) {
    rec.objective =
        solver::GlobalObjective(problem_.train, *model_, problem_.lambda);
  }
  rec.accuracy = solver::Accuracy(problem_.test, *model_);
  rec.cal_time = ledger.MeanCalTime();
  rec.comm_time = ledger.MeanCommTime();
  rec.makespan = ledger.MaxClock();
  result_.trace.push_back(rec);
}

void RunEpilogue::Finish(const linalg::DenseVector& final_model,
                         const engine::TimeLedger& ledger) {
  RunResult& r = result_;
  r.final_z = final_model;
  r.final_objective =
      solver::GlobalObjective(problem_.train, r.final_z, problem_.lambda);
  r.final_accuracy = solver::Accuracy(problem_.test, r.final_z);
  r.total_cal_time = ledger.MeanCalTime();
  r.total_comm_time = ledger.MeanCommTime();
  r.makespan = ledger.MaxClock();
  if (!eo_.on()) return;
  auto& m = eo_.metrics();
  m.Counter("engine.iterations") += r.iterations_run;
  m.Counter("engine.censored_sends") += r.censored_sends;
  m.Counter("fault.worker_crashes") += r.faults.worker_crashes;
  m.Counter("fault.recoveries") += r.faults.recoveries;
  m.Counter("fault.leader_deaths") += r.faults.leader_deaths;
  m.Counter("fault.leader_reelections") += r.faults.leader_reelections;
  m.Counter("fault.dropped_messages") += r.faults.dropped_messages;
  m.Counter("fault.retries") += r.faults.retries;
  m.Counter("fault.delayed_messages") += r.faults.delayed_messages;
  m.Counter("fault.down_worker_iterations") += r.faults.down_worker_iterations;
  m.Gauge("run.makespan_s") = r.makespan;
  m.Gauge("run.cal_time_s") = r.total_cal_time;
  m.Gauge("run.comm_time_s") = r.total_comm_time;
  m.Gauge("run.iterations") = static_cast<double>(r.iterations_run);
  // Early-stop outcome (Boyd §3.3): lets any metrics.json distinguish a
  // converged run from a max-iteration exit, and records how many
  // iterations the tolerance took when it was reached.
  m.Gauge("stopping.converged") = r.stopped_early ? 1.0 : 0.0;
  m.Gauge("stopping.iterations_to_tolerance") =
      r.stopped_early ? static_cast<double>(r.iterations_run) : 0.0;
  // The per-series summary gauges (ts.*.samples/first/last/...) ride every
  // metrics.json.
  eo_.timeline().PublishSummary(m);
  r.metrics = m;
}

}  // namespace psra::admm
