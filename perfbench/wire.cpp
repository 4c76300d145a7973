// The real-socket part of every workload: 3 ranks, one forked OS process
// each, full-mesh loopback TCP (transport::TcpTransport) running
// comm::WireCollectives PSR allreduces on the workload's leader aggregates.
//
// Rank 0 reports back through an anonymous shared mapping created before
// the fork; transport::ForkRanks waits for every rank and kills stragglers.
// The caller's host pool may exist at fork time: its threads are parked on a
// condition variable, and a rank only runs transport code and leaves through
// _exit, so nothing in the child touches the pool.
#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "comm/collective.hpp"
#include "comm/wire_allreduce.hpp"
#include "obs/wire.hpp"
#include "simnet/topology.hpp"
#include "transport/launch.hpp"
#include "transport/tcp.hpp"

namespace perfbench {
namespace {

using comm::Transport;

// Side-channel tags: below Transport::kMaxCollectiveTag (the obs collection
// plane's reserved range starts there) and far above the collective tags
// the few thousand epochs of one run use.
constexpr Transport::Tag kControlTag = 0xFFFC0000u;
constexpr Transport::Tag kStatsTag = 0xFFFC0001u;
constexpr Transport::Tag kPingTag = 0xFFFC0002u;
constexpr Transport::Tag kPongTag = 0xFFFC0003u;

/// Pairs (sparse + dense) per loop batch; rank 0 decides between batches
/// whether the loop goes on.
constexpr std::size_t kBatch = 16;

/// Leading pairs of each window that are checked but not timed: the ranks
/// are freshly forked, and their first collectives pay for page faults and
/// socket buffer growth rather than for the collective.
constexpr std::size_t kWarmupPairs = 4 * kBatch;

/// RAII anonymous shared mapping holding one T: fixed-size state written by
/// the forked ranks and read by the parent after they exit.
template <typename T>
class Shared {
 public:
  Shared() {
    void* p = mmap(nullptr, sizeof(T), PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::runtime_error("mmap of shared state failed");
    ptr_ = new (p) T();
  }
  ~Shared() {
    ptr_->~T();
    munmap(ptr_, sizeof(T));
  }
  Shared(const Shared&) = delete;
  Shared& operator=(const Shared&) = delete;
  T* operator->() { return ptr_; }
  T& operator*() { return *ptr_; }

 private:
  T* ptr_ = nullptr;
};

struct RankErrors {
  char text[kWireRanks][200] = {};

  void Record(Transport::Rank rank, const char* what) {
    std::snprintf(text[rank], sizeof(text[rank]), "%s", what);
  }
  void CollectInto(std::vector<std::string>& out) const {
    for (std::uint32_t r = 0; r < kWireRanks; ++r) {
      if (text[r][0] != '\0') {
        out.push_back("wire rank " + std::to_string(r) + ": " + text[r]);
      }
    }
  }
};

transport::TcpOptions Tighten(transport::TcpOptions opt) {
  // Fail fast: a dead peer should cost seconds, not the default 20 s.
  opt.connect_timeout_s = 10.0;
  opt.recv_timeout_s = 5.0;
  return opt;
}

std::vector<Transport::Rank> Members() {
  std::vector<Transport::Rank> m(kWireRanks);
  for (std::uint32_t i = 0; i < kWireRanks; ++i) m[i] = i;
  return m;
}

void PostU64(Transport& t, Transport::Rank dst, Transport::Tag tag,
             std::uint64_t v) {
  t.Post(dst, tag, std::as_bytes(std::span<const std::uint64_t>(&v, 1)));
}

std::uint64_t RecvU64(Transport& t, Transport::Rank src, Transport::Tag tag) {
  std::vector<std::byte> buf;
  t.Recv(src, tag, buf);
  std::uint64_t v = 0;
  if (buf.size() != sizeof(v)) throw std::runtime_error("bad control frame");
  std::memcpy(&v, buf.data(), sizeof(v));
  return v;
}

/// One verified pair of PSR collectives (sparse, then dense) on every rank.
/// The first pair ships each rank's byte counts to rank 0, which checks
/// their sum against the simulator's CommStats; later pairs must repeat each
/// rank's own first counts.
class PairRunner {
 public:
  PairRunner(comm::WireCollectives& wc, const WirePayload& p)
      : wc_(wc), p_(p), members_(Members()),
        rank_(wc.transport().rank()) {}

  /// Runs one pair; returns (sparse ok, dense ok) and the per-call wall
  /// seconds through `sparse_s` / `dense_s`.
  std::pair<bool, bool> Run(double& sparse_s, double& dense_s) {
    auto t0 = Clock::now();
    wc_.AllreduceSparse(comm::AllreduceKind::kPsr, members_,
                        p_.sparse_in[rank_], sparse_out_, st_);
    sparse_s = SecondsSince(t0);
    bool sparse_ok = sparse_out_ == p_.sparse_sum;
    const std::size_t sparse_bytes = st_.bytes_sent;

    t0 = Clock::now();
    wc_.AllreduceDense(comm::AllreduceKind::kPsr, members_, p_.dense_in[rank_],
                       dense_out_, st_);
    dense_s = SecondsSince(t0);
    bool dense_ok = SameBits(dense_out_, p_.dense_sum);
    const std::size_t dense_bytes = st_.bytes_sent;

    if (first_) {
      first_ = false;
      first_sparse_bytes_ = sparse_bytes;
      first_dense_bytes_ = dense_bytes;
      sparse_ok = sparse_ok && SumMatches(sparse_bytes, p_.sparse_bytes);
      dense_ok = dense_ok && SumMatches(dense_bytes, p_.dense_bytes);
    } else {
      sparse_ok = sparse_ok && sparse_bytes == first_sparse_bytes_;
      dense_ok = dense_ok && dense_bytes == first_dense_bytes_;
    }
    return {sparse_ok, dense_ok};
  }

 private:
  /// Collective: true on rank 0 when the ranks' bytes sum to `expect`;
  /// other ranks contribute and return true.
  bool SumMatches(std::size_t mine, std::size_t expect) {
    Transport& t = wc_.transport();
    if (rank_ != 0) {
      PostU64(t, 0, kStatsTag, mine);
      return true;
    }
    std::uint64_t total = mine;
    for (Transport::Rank r = 1; r < kWireRanks; ++r) {
      total += RecvU64(t, r, kStatsTag);
    }
    return total == expect;
  }

  comm::WireCollectives& wc_;
  const WirePayload& p_;
  std::vector<Transport::Rank> members_;
  Transport::Rank rank_;
  comm::WireStats st_;
  linalg::SparseVector sparse_out_;
  linalg::DenseVector dense_out_;
  bool first_ = true;
  std::size_t first_sparse_bytes_ = 0;
  std::size_t first_dense_bytes_ = 0;
};

// ---- End-to-end loop --------------------------------------------------------

struct LoopState {
  static constexpr std::size_t kMaxPairs = std::size_t{1} << 17;
  std::uint64_t pairs = 0;  // completed pairs (rank 0)
  double rendezvous_s = 0.0;
  double sparse_us[kMaxPairs];
  double dense_us[kMaxPairs];
  /// Per collective (2 per pair): set by any rank whose output or byte
  /// count was wrong.
  std::atomic<std::uint8_t> bad[2 * kMaxPairs];
  RankErrors errors;
};

void LoopRank(const transport::TcpOptions& opt, const WirePayload& p,
              double seconds, LoopState& s) {
  try {
    const auto t0 = Clock::now();
    transport::TcpTransport t(Tighten(opt));
    t.Fence();
    if (opt.rank == 0) s.rendezvous_s = SecondsSince(t0);

    comm::WireCollectives wc(t, p.pricing);
    PairRunner runner(wc, p);
    const auto start = Clock::now();
    std::size_t pair = 0;
    while (true) {
      for (std::size_t i = 0; i < kBatch; ++i, ++pair) {
        double sparse_s = 0.0, dense_s = 0.0;
        const auto [sparse_ok, dense_ok] = runner.Run(sparse_s, dense_s);
        if (!sparse_ok) s.bad[2 * pair].store(1, std::memory_order_relaxed);
        if (!dense_ok) s.bad[2 * pair + 1].store(1, std::memory_order_relaxed);
        if (opt.rank == 0) {
          s.sparse_us[pair] = sparse_s * 1e6;
          s.dense_us[pair] = dense_s * 1e6;
          s.pairs = pair + 1;
        }
      }
      // Rank 0 decides; the others follow, so every rank runs the same
      // sequence of collectives.
      std::uint64_t go = 0;
      if (opt.rank == 0) {
        go = SecondsSince(start) < seconds &&
             pair + kBatch <= LoopState::kMaxPairs;
        for (Transport::Rank r = 1; r < kWireRanks; ++r) {
          PostU64(t, r, kControlTag, go);
        }
      } else {
        go = RecvU64(t, 0, kControlTag);
      }
      if (go == 0) break;
    }
    t.Fence();
  } catch (const std::exception& e) {
    s.errors.Record(opt.rank, e.what());
    throw;
  }
}

// ---- Traced replay ----------------------------------------------------------

struct ReplayState {
  static constexpr std::size_t kMaxCalls = 8192;
  static constexpr const char* kNames[] = {"transport.ping_pong",
                                           "transport.fence",
                                           "wire.allreduce_sparse",
                                           "wire.allreduce_dense"};
  std::uint64_t calls = 0;
  std::uint8_t call_name[kMaxCalls];
  double call_begin[kMaxCalls];
  double call_end[kMaxCalls];
  double scatter_reduce_s = 0.0;  // mean of the phase histogram
  double allgather_s = 0.0;
  std::uint64_t collectives = 0;
  std::uint64_t bad = 0;  // failed collectives, summed over ranks
  RankErrors errors;

  void AddCall(std::uint8_t name, double begin, double end) {
    if (calls >= kMaxCalls) return;
    call_name[calls] = name;
    call_begin[calls] = begin;
    call_end[calls] = end;
    ++calls;
  }
};

constexpr int kPingPongs = 400;
constexpr int kFences = 400;
constexpr int kReplayPairs = 200;

double HistoMean(const obs::MetricsRegistry& m, const std::string& name) {
  const auto it = m.histograms().find(name);
  if (it == m.histograms().end() || it->second.count == 0) return 0.0;
  return it->second.sum / static_cast<double>(it->second.count);
}

void ReplayRank(const transport::TcpOptions& opt, const WirePayload& p,
                ReplayState& s) {
  try {
    transport::TcpTransport t(Tighten(opt));
    t.Fence();
    const bool root = opt.rank == 0;

    // Post/Recv round trip of one aggregate-sized frame, rank 0 <-> rank 1.
    const auto& agg = p.sparse_in[0];
    std::vector<std::byte> frame(agg.nnz() * p.pricing.PerElement(true));
    std::vector<std::byte> buf;
    for (int i = 0; i < kPingPongs; ++i) {
      if (root) {
        const double b = NowSeconds();
        t.Post(1, kPingTag, frame);
        t.Recv(1, kPongTag, buf);
        s.AddCall(0, b, NowSeconds());
      } else if (opt.rank == 1) {
        t.Recv(0, kPingTag, buf);
        t.Post(0, kPongTag, buf);
      }
    }
    t.Fence();

    for (int i = 0; i < kFences; ++i) {
      const double b = NowSeconds();
      t.Fence();
      if (root) s.AddCall(1, b, NowSeconds());
    }

    obs::WireObs wobs(opt.rank);
    comm::WireCollectives wc(t, p.pricing, &wobs);
    PairRunner runner(wc, p);
    std::uint64_t bad = 0;
    for (int i = 0; i < kReplayPairs; ++i) {
      const double b = NowSeconds();
      double sparse_s = 0.0, dense_s = 0.0;
      const auto [sparse_ok, dense_ok] = runner.Run(sparse_s, dense_s);
      bad += (sparse_ok ? 0 : 1) + (dense_ok ? 0 : 1);
      if (root) {
        s.AddCall(2, b, b + sparse_s);
        s.AddCall(3, b + sparse_s, b + sparse_s + dense_s);
      }
    }
    // Failure counts travel to rank 0 over the transport itself.
    if (root) {
      for (Transport::Rank r = 1; r < kWireRanks; ++r) {
        bad += RecvU64(t, r, kStatsTag);
      }
      s.bad = bad;
      s.collectives = 2 * kReplayPairs;
      s.scatter_reduce_s =
          HistoMean(wobs.metrics(), "wire.phase.scatter_reduce.wall_s");
      s.allgather_s = HistoMean(wobs.metrics(), "wire.phase.allgather.wall_s");
    } else {
      PostU64(t, 0, kStatsTag, bad);
    }
    t.Fence();
  } catch (const std::exception& e) {
    s.errors.Record(opt.rank, e.what());
    throw;
  }
}

}  // namespace

WirePayload MakeWirePayload(std::span<const linalg::DenseVector> aggregates) {
  if (aggregates.size() < kWireRanks) {
    throw std::runtime_error("wire payload needs one aggregate per rank");
  }
  WirePayload p;
  for (std::uint32_t r = 0; r < kWireRanks; ++r) {
    p.dense_in.push_back(aggregates[r]);
    p.sparse_in.push_back(linalg::SparseVector::FromDense(aggregates[r]));
  }
  // The simulator's result on identical inputs: a flat 3-member group of
  // single-worker nodes under the default cost model, as bench_wire uses.
  const simnet::Topology topo(kWireRanks, 1);
  const simnet::CostModel cost{simnet::CostModelConfig{}};
  std::vector<simnet::Rank> ranks(kWireRanks);
  for (std::uint32_t i = 0; i < kWireRanks; ++i) ranks[i] = i;
  const comm::GroupComm group(&topo, &cost, ranks);
  const std::vector<simnet::VirtualTime> starts(kWireRanks, 0.0);
  const auto alg = comm::MakeAllreduce(comm::AllreduceKind::kPsr);
  comm::AllreduceScratch scratch;
  comm::CommStats stats;
  alg->ReduceSparse(group, p.sparse_in, starts, scratch, p.sparse_sum, stats);
  p.sparse_bytes = stats.bytes_sent;
  alg->ReduceDense(group, p.dense_in, starts, scratch, p.dense_sum, stats);
  p.dense_bytes = stats.bytes_sent;
  p.pricing = group.pricing();
  return p;
}

WireLoopResult RunWireLoop(const WirePayload& p, double seconds) {
  Shared<LoopState> s;
  const auto launch = transport::ForkRanks(
      kWireRanks,
      [&](const transport::TcpOptions& opt) { LoopRank(opt, p, seconds, *s); },
      /*timeout_s=*/seconds + 60.0);

  WireLoopResult out;
  const std::size_t pairs = s->pairs;
  const std::size_t warmup = std::min(pairs, kWarmupPairs);
  out.sparse_us.assign(s->sparse_us + warmup, s->sparse_us + pairs);
  out.dense_us.assign(s->dense_us + warmup, s->dense_us + pairs);
  out.rendezvous_s = s->rendezvous_s;
  out.attempted = 2 * pairs;
  for (std::size_t i = 0; i < 2 * pairs; ++i) {
    if (s->bad[i].load(std::memory_order_relaxed) != 0) {
      ++out.failed;
      if (out.failures.size() < 5) {
        out.failures.push_back("wire collective " + std::to_string(i) +
                               " differs from the simulator");
      }
    }
  }
  if (!launch.AllZero()) {
    // The collective in flight when a rank died or timed out.
    ++out.attempted;
    ++out.failed;
    s->errors.CollectInto(out.failures);
    if (out.failures.empty()) out.failures.push_back("a wire rank failed");
  }
  return out;
}

WireReplayResult RunWireReplay(const WirePayload& p) {
  Shared<ReplayState> s;
  const auto launch = transport::ForkRanks(
      kWireRanks,
      [&](const transport::TcpOptions& opt) { ReplayRank(opt, p, *s); },
      /*timeout_s=*/60.0);

  WireReplayResult out;
  for (std::uint64_t i = 0; i < s->calls; ++i) {
    const double us = (s->call_end[i] - s->call_begin[i]) * 1e6;
    if (s->call_name[i] == 0) out.rtt_us.push_back(us);
    if (s->call_name[i] == 1) out.fence_us.push_back(us);
    out.calls.push_back({ReplayState::kNames[s->call_name[i]],
                         s->call_begin[i], s->call_end[i]});
  }
  out.scatter_reduce_us = s->scatter_reduce_s * 1e6;
  out.allgather_us = s->allgather_s * 1e6;
  out.attempted = s->collectives;
  out.failed = s->bad;
  if (s->bad != 0) out.failures.push_back("replayed wire collectives differ");
  if (!launch.AllZero()) {
    ++out.attempted;
    ++out.failed;
    s->errors.CollectInto(out.failures);
    if (out.failures.empty()) out.failures.push_back("a wire rank failed");
  }
  return out;
}

}  // namespace perfbench
