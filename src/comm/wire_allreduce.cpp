#include "comm/wire_allreduce.hpp"

#include <cstring>
#include <string>

#include "obs/wire.hpp"
#include "support/status.hpp"

namespace psra::comm {

namespace {

using Rank = Transport::Rank;
using Tag = Transport::Tag;

const char* AlgName(AllreduceKind kind) {
  switch (kind) {
    case AllreduceKind::kPsr: return "psr";
    case AllreduceKind::kRing: return "ring";
    case AllreduceKind::kNaive: return "naive";
    default: return "other";
  }
}

/// RAII per-stage instrumentation: one span named after the stage plus one
/// observation in the wire.phase.<stage>.wall_s histogram. `name` must be a
/// string literal (spans store the pointer). Null obs costs one branch.
struct StageSpan {
  obs::WireObs* obs;
  const char* name;
  double begin = 0.0;

  StageSpan(obs::WireObs* o, const char* n) : obs(o), name(n) {
    if (obs != nullptr) begin = obs->Now();
  }
  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;
  ~StageSpan() {
    if (obs == nullptr) return;
    const double end = obs->Now();
    obs->tracer().Add(obs->track(), name, begin, end, obs->iteration,
                      end - begin);
    obs->metrics()
        .Histo(std::string("wire.phase.") + name + ".wall_s",
               obs::WireLatencyBounds())
        .Observe(end - begin);
  }
};

/// Same ownership split as GroupComm::BlockRange.
std::pair<std::uint64_t, std::uint64_t> BlockRange(std::uint64_t dim,
                                                   GroupRank g, GroupRank n) {
  const std::uint64_t nn = n;
  return {dim * g / nn, dim * (g + 1) / nn};
}

/// Group-rank addressing over the transport: members[g] is the transport
/// rank of group rank g. Payloads are staged in reusable byte buffers.
struct Wire {
  Transport& t;
  std::span<const Rank> members;
  GroupRank me = 0;
  obs::WireObs* obs = nullptr;

  Wire(Transport& transport, std::span<const Rank> m,
       obs::WireObs* o = nullptr)
      : t(transport), members(m), obs(o) {
    PSRA_REQUIRE(!m.empty(), "wire collective needs at least one member");
    bool found = false;
    for (std::size_t i = 0; i < m.size(); ++i) {
      PSRA_REQUIRE(m[i] < t.world_size(), "member rank out of range");
      for (std::size_t j = i + 1; j < m.size(); ++j) {
        PSRA_REQUIRE(m[i] != m[j], "member ranks must be distinct");
      }
      if (m[i] == t.rank()) {
        me = static_cast<GroupRank>(i);
        found = true;
      }
    }
    PSRA_REQUIRE(found, "calling rank is not a member of this collective");
  }

  GroupRank size() const { return static_cast<GroupRank>(members.size()); }

  void PostDense(GroupRank dst, Tag tag, std::span<const double> x) {
    t.Post(members[dst], tag,
           std::as_bytes(std::span<const double>(x)));
  }

  /// Receives exactly `out.size()` doubles from group rank `src`.
  void RecvDense(GroupRank src, Tag tag, std::span<double> out,
                 std::vector<std::byte>& buf) {
    t.Recv(members[src], tag, buf);
    PSRA_REQUIRE(buf.size() == out.size() * sizeof(double),
                 "dense payload size mismatch");
    std::memcpy(out.data(), buf.data(), buf.size());
  }

  /// Sparse payload: u64 nnz | nnz * u64 index | nnz * double value.
  void PostSparse(GroupRank dst, Tag tag, const linalg::SparseVector& v,
                  std::vector<std::byte>& buf) {
    const std::uint64_t nnz = v.nnz();
    buf.resize(sizeof(std::uint64_t) * (1 + nnz) + sizeof(double) * nnz);
    std::byte* p = buf.data();
    std::memcpy(p, &nnz, sizeof(nnz));
    p += sizeof(nnz);
    std::memcpy(p, v.indices().data(), nnz * sizeof(std::uint64_t));
    p += nnz * sizeof(std::uint64_t);
    std::memcpy(p, v.values().data(), nnz * sizeof(double));
    t.Post(members[dst], tag, buf);
  }

  void RecvSparse(GroupRank src, Tag tag, std::uint64_t dim,
                  linalg::SparseVector& out, std::vector<std::byte>& buf,
                  std::vector<std::uint64_t>& idx, std::vector<double>& val) {
    t.Recv(members[src], tag, buf);
    PSRA_REQUIRE(buf.size() >= sizeof(std::uint64_t),
                 "sparse payload too short");
    std::uint64_t nnz = 0;
    const std::byte* p = buf.data();
    std::memcpy(&nnz, p, sizeof(nnz));
    p += sizeof(nnz);
    PSRA_REQUIRE(buf.size() == sizeof(std::uint64_t) * (1 + nnz) +
                                   sizeof(double) * nnz,
                 "sparse payload size mismatch");
    idx.resize(nnz);
    val.resize(nnz);
    std::memcpy(idx.data(), p, nnz * sizeof(std::uint64_t));
    p += nnz * sizeof(std::uint64_t);
    std::memcpy(val.data(), p, nnz * sizeof(double));
    out = linalg::SparseVector(dim, idx, val);
  }
};

// Reused receive/serialize scratch, one set per collective invocation.
struct Scratch {
  std::vector<std::byte> bytes;
  std::vector<std::uint64_t> idx;
  std::vector<double> val;
  linalg::DenseVector dense_a, dense_b;
  linalg::SparseVector sp_a, sp_b;
  linalg::SparseBlockFold fold;
  std::vector<linalg::SparseVector> sp_blocks;
  std::vector<linalg::DenseVector> dn_blocks;
};

// ---------------------------------------------------------------------------
// PSR (paper Section 4.2): direct scatter to block owners, then allgather.

void PsrDense(Wire& w, Tag base, ElemPricing pr,
              const linalg::DenseVector& input, linalg::DenseVector& out,
              Scratch& sc, WireStats& st) {
  const GroupRank n = w.size();
  const std::uint64_t dim = input.size();
  const std::size_t eb = pr.PerElement(false);
  out.assign(dim, 0.0);
  if (n == 1) {  // simulator arithmetic: sum = zeros + input
    linalg::Axpy(1.0, input, out);
    return;
  }

  const auto [mlo, mhi] = BlockRange(dim, w.me, n);
  const std::size_t mlen = static_cast<std::size_t>(mhi - mlo);
  auto& acc = sc.dense_a;
  {
    StageSpan stage(w.obs, "scatter_reduce");
    // Scatter-reduce: post my slice of every foreign block to its owner.
    for (GroupRank j = 0; j < n; ++j) {
      if (j == w.me) continue;
      const auto [lo, hi] = BlockRange(dim, j, n);
      w.PostDense(j, base,
                  std::span<const double>(input).subspan(lo, hi - lo));
      st.CountSend(static_cast<std::size_t>(hi - lo), eb);
    }
    ++st.rounds;

    // Reduce my block in ascending contributor order into zeros.
    acc.assign(mlen, 0.0);
    for (GroupRank g = 0; g < n; ++g) {
      if (g == w.me) {
        linalg::Axpy(1.0, std::span<const double>(input).subspan(mlo, mlen),
                     acc);
      } else {
        auto& recv = sc.dense_b;
        recv.resize(mlen);
        w.RecvDense(g, base, recv, sc.bytes);
        linalg::Axpy(1.0, recv, acc);
      }
    }
  }

  {
    StageSpan stage(w.obs, "allgather");
    // Allgather: broadcast my reduced block, collect the others.
    for (GroupRank m = 0; m < n; ++m) {
      if (m == w.me) continue;
      w.PostDense(m, base + 1, acc);
      st.CountSend(mlen, eb);
    }
    std::copy(acc.begin(), acc.end(),
              out.begin() + static_cast<std::ptrdiff_t>(mlo));
    for (GroupRank b = 0; b < n; ++b) {
      if (b == w.me) continue;
      const auto [lo, hi] = BlockRange(dim, b, n);
      w.RecvDense(b, base + 1,
                  std::span<double>(out.data() + lo,
                                    static_cast<std::size_t>(hi - lo)),
                  sc.bytes);
    }
    ++st.rounds;
  }
}

void PsrSparse(Wire& w, Tag base, ElemPricing pr,
               const linalg::SparseVector& input, linalg::SparseVector& out,
               Scratch& sc, WireStats& st) {
  const GroupRank n = w.size();
  const std::uint64_t dim = input.dim();
  const std::size_t eb = pr.PerElement(true);
  if (n == 1) {  // simulator: reduced block = inputs[0] slice, concatenated
    out = input;
    return;
  }

  const auto [mlo, mhi] = BlockRange(dim, w.me, n);
  auto& acc = sc.sp_b;
  {
    StageSpan stage(w.obs, "scatter_reduce");
    // Scatter-reduce: ship my slice of every foreign block to its owner.
    // Empty slices still travel (the owner expects one frame per
    // contributor) but are NOT counted — exactly where the simulator skips
    // them.
    for (GroupRank j = 0; j < n; ++j) {
      if (j == w.me) continue;
      const auto [lo, hi] = BlockRange(dim, j, n);
      input.SliceInto(lo, hi, sc.sp_a);
      w.PostSparse(j, base, sc.sp_a, sc.bytes);
      if (sc.sp_a.nnz() > 0) st.CountSend(sc.sp_a.nnz(), eb);
    }
    ++st.rounds;

    // Reduce my block with the simulator's block fold, contributors in
    // ascending group-rank order.
    sc.fold.Reset(mlo, mhi);
    for (GroupRank g = 0; g < n; ++g) {
      if (g == w.me) {
        sc.fold.Add(input);
      } else {
        w.RecvSparse(g, base, dim, sc.sp_a, sc.bytes, sc.idx, sc.val);
        sc.fold.Add(sc.sp_a);
      }
    }
    acc.Clear(dim);
    sc.fold.AppendTo(acc);
  }

  auto& blocks = sc.sp_blocks;
  {
    StageSpan stage(w.obs, "allgather");
    // Allgather the reduced blocks; empty reduced blocks ship but don't
    // count.
    for (GroupRank m = 0; m < n; ++m) {
      if (m == w.me) continue;
      w.PostSparse(m, base + 1, acc, sc.bytes);
      if (acc.nnz() > 0) st.CountSend(acc.nnz(), eb);
    }
    blocks.resize(n);
    blocks[w.me] = acc;
    for (GroupRank b = 0; b < n; ++b) {
      if (b == w.me) continue;
      w.RecvSparse(b, base + 1, dim, blocks[b], sc.bytes, sc.idx, sc.val);
    }
    ++st.rounds;
  }
  linalg::SparseVector::ConcatDisjointInto(blocks, out);
}

// ---------------------------------------------------------------------------
// Ring: pipelined scatter-reduce + allgather. The receiver folds the
// incoming partial INTO its local block (dst += src) — the simulator's
// RingRunner order, which is NOT ascending-rank.

template <typename Block, typename PostFn, typename RecvFn, typename SizeFn,
          typename ReduceFn>
void RingSchedule(Wire& w, Tag base, ElemPricing pr, bool sparse,
                  std::vector<Block>& blocks, PostFn post, RecvFn recv,
                  SizeFn size, ReduceFn reduce, WireStats& st) {
  const GroupRank n = w.size();
  const std::int64_t me = w.me;
  auto mod = [n](std::int64_t v) {
    return static_cast<GroupRank>(((v % n) + n) % n);
  };
  const GroupRank succ = mod(me + 1);
  const GroupRank pred = mod(me - 1);
  const std::size_t eb = pr.PerElement(sparse);

  Block incoming{};
  {
    StageSpan stage(w.obs, "scatter_reduce");
    // Scatter-reduce: after round r I own a deeper partial of block
    // (me-r-1).
    for (GroupRank r = 0; r + 1 < n; ++r) {
      const GroupRank s = mod(me - r);
      post(succ, base, blocks[s]);
      st.CountSend(size(blocks[s]), eb);
      ++st.rounds;
      const GroupRank b = mod(static_cast<std::int64_t>(pred) - r);
      recv(pred, base, incoming);
      reduce(blocks[b], incoming);
    }
  }
  {
    StageSpan stage(w.obs, "allgather");
    // Allgather: circulate the completed blocks, replacing local copies.
    for (GroupRank r = 0; r + 1 < n; ++r) {
      const GroupRank s = mod(me + 1 - r);
      post(succ, base + 1, blocks[s]);
      st.CountSend(size(blocks[s]), eb);
      ++st.rounds;
      const GroupRank b = mod(static_cast<std::int64_t>(pred) + 1 - r);
      recv(pred, base + 1, incoming);
      blocks[b] = incoming;
    }
  }
}

void RingDense(Wire& w, Tag base, ElemPricing pr,
               const linalg::DenseVector& input, linalg::DenseVector& out,
               Scratch& sc, WireStats& st) {
  const GroupRank n = w.size();
  const std::uint64_t dim = input.size();
  auto& blocks = sc.dn_blocks;
  blocks.resize(n);
  for (GroupRank b = 0; b < n; ++b) {
    const auto [lo, hi] = BlockRange(dim, b, n);
    blocks[b].assign(input.begin() + static_cast<std::ptrdiff_t>(lo),
                     input.begin() + static_cast<std::ptrdiff_t>(hi));
  }
  if (n > 1) {
    RingSchedule<linalg::DenseVector>(
        w, base, pr, /*sparse=*/false, blocks,
        [&](GroupRank dst, Tag tag, const linalg::DenseVector& x) {
          w.PostDense(dst, tag, x);
        },
        [&](GroupRank src, Tag tag, linalg::DenseVector& x) {
          w.t.Recv(w.members[src], tag, sc.bytes);
          x.resize(sc.bytes.size() / sizeof(double));
          std::memcpy(x.data(), sc.bytes.data(), sc.bytes.size());
        },
        [](const linalg::DenseVector& x) { return x.size(); },
        [](linalg::DenseVector& dst, const linalg::DenseVector& src) {
          linalg::Axpy(1.0, src, dst);
        },
        st);
  }
  out.resize(dim);
  for (GroupRank b = 0; b < n; ++b) {
    const auto [lo, hi] = BlockRange(dim, b, n);
    std::copy(blocks[b].begin(), blocks[b].end(),
              out.begin() + static_cast<std::ptrdiff_t>(lo));
  }
}

void RingSparse(Wire& w, Tag base, ElemPricing pr,
                const linalg::SparseVector& input, linalg::SparseVector& out,
                Scratch& sc, WireStats& st) {
  const GroupRank n = w.size();
  const std::uint64_t dim = input.dim();
  auto& blocks = sc.sp_blocks;
  blocks.resize(n);
  for (GroupRank b = 0; b < n; ++b) {
    const auto [lo, hi] = BlockRange(dim, b, n);
    input.SliceInto(lo, hi, blocks[b]);
  }
  if (n > 1) {
    RingSchedule<linalg::SparseVector>(
        w, base, pr, /*sparse=*/true, blocks,
        [&](GroupRank dst, Tag tag, const linalg::SparseVector& x) {
          w.PostSparse(dst, tag, x, sc.bytes);
        },
        [&](GroupRank src, Tag tag, linalg::SparseVector& x) {
          w.RecvSparse(src, tag, dim, x, sc.bytes, sc.idx, sc.val);
        },
        [](const linalg::SparseVector& x) { return x.nnz(); },
        [](linalg::SparseVector& dst, const linalg::SparseVector& src) {
          dst = linalg::SparseVector::Sum(dst, src);
        },
        st);
  }
  linalg::SparseVector::ConcatDisjointInto(blocks, out);
}

// ---------------------------------------------------------------------------
// Naive: gather everything at group rank 0, reduce there, broadcast back.

void NaiveDense(Wire& w, Tag base, ElemPricing pr,
                const linalg::DenseVector& input, linalg::DenseVector& out,
                Scratch& sc, WireStats& st) {
  const GroupRank n = w.size();
  const std::uint64_t dim = input.size();
  const std::size_t eb = pr.PerElement(false);
  if (n == 1) {  // simulator arithmetic: sum = zeros + input
    out.assign(dim, 0.0);
    linalg::Axpy(1.0, input, out);
    return;
  }
  if (w.me == 0) {
    {
      StageSpan stage(w.obs, "gather");
      out.assign(dim, 0.0);
      auto& recv = sc.dense_a;
      recv.resize(dim);
      for (GroupRank g = 0; g < n; ++g) {
        if (g == 0) {
          linalg::Axpy(1.0, input, out);
        } else {
          w.RecvDense(g, base, recv, sc.bytes);
          linalg::Axpy(1.0, recv, out);
        }
      }
      ++st.rounds;  // gather phase
    }
    StageSpan stage(w.obs, "broadcast");
    for (GroupRank g = 1; g < n; ++g) {
      w.PostDense(g, base + 1, out);
      st.CountSend(dim, eb);
    }
    ++st.rounds;  // broadcast phase
  } else {
    {
      StageSpan stage(w.obs, "gather");
      w.PostDense(0, base, input);
      st.CountSend(dim, eb);
      ++st.rounds;
    }
    StageSpan stage(w.obs, "broadcast");
    out.resize(dim);
    w.RecvDense(0, base + 1, out, sc.bytes);
    ++st.rounds;
  }
}

void NaiveSparse(Wire& w, Tag base, ElemPricing pr,
                 const linalg::SparseVector& input, linalg::SparseVector& out,
                 Scratch& sc, WireStats& st) {
  const GroupRank n = w.size();
  const std::uint64_t dim = input.dim();
  const std::size_t eb = pr.PerElement(true);
  if (n == 1) {  // simulator: sum = inputs[0]
    out = input;
    return;
  }
  if (w.me == 0) {
    {
      StageSpan stage(w.obs, "gather");
      out = input;  // inputs[0], then SumInto ascending
      for (GroupRank g = 1; g < n; ++g) {
        w.RecvSparse(g, base, dim, sc.sp_a, sc.bytes, sc.idx, sc.val);
        linalg::SparseVector::SumInto(out, sc.sp_a, sc.sp_b);
        std::swap(out, sc.sp_b);
      }
      ++st.rounds;
    }
    StageSpan stage(w.obs, "broadcast");
    // Broadcast: the simulator books every message, even a zero-nnz sum.
    for (GroupRank g = 1; g < n; ++g) {
      w.PostSparse(g, base + 1, out, sc.bytes);
      st.CountSend(out.nnz(), eb);
    }
    ++st.rounds;
  } else {
    {
      StageSpan stage(w.obs, "gather");
      // Empty contributions ship but don't count (simulator skips them).
      w.PostSparse(0, base, input, sc.bytes);
      if (input.nnz() > 0) st.CountSend(input.nnz(), eb);
      ++st.rounds;
    }
    StageSpan stage(w.obs, "broadcast");
    w.RecvSparse(0, base + 1, dim, out, sc.bytes, sc.idx, sc.val);
    ++st.rounds;
  }
}

void RunDense(AllreduceKind kind, Wire& w, Tag base, ElemPricing pr,
              const linalg::DenseVector& input, linalg::DenseVector& out,
              Scratch& sc, WireStats& st) {
  switch (kind) {
    case AllreduceKind::kPsr:
      PsrDense(w, base, pr, input, out, sc, st);
      return;
    case AllreduceKind::kRing:
      RingDense(w, base, pr, input, out, sc, st);
      return;
    case AllreduceKind::kNaive:
      NaiveDense(w, base, pr, input, out, sc, st);
      return;
    default:
      throw InvalidArgument("wire collectives support psr, ring and naive");
  }
}

void RunSparse(AllreduceKind kind, Wire& w, Tag base, ElemPricing pr,
               const linalg::SparseVector& input, linalg::SparseVector& out,
               Scratch& sc, WireStats& st) {
  switch (kind) {
    case AllreduceKind::kPsr:
      PsrSparse(w, base, pr, input, out, sc, st);
      return;
    case AllreduceKind::kRing:
      RingSparse(w, base, pr, input, out, sc, st);
      return;
    case AllreduceKind::kNaive:
      NaiveSparse(w, base, pr, input, out, sc, st);
      return;
    default:
      throw InvalidArgument("wire collectives support psr, ring and naive");
  }
}

constexpr Tag kTagsPerEpoch = 4;

/// Records the enclosing collective span + wire.collective.<alg>.wall_s
/// observation and leaves the transport's iteration label. Call only with a
/// non-null obs.
void FinishCollective(obs::WireObs* obs, const char* span_name,
                      const std::string& alg, double begin) {
  const double end = obs->Now();
  obs->tracer().Add(obs->track(), span_name, begin, end, obs->iteration,
                    end - begin);
  obs->metrics()
      .Histo(std::string("wire.collective.") + alg + ".wall_s",
             obs::WireLatencyBounds())
      .Observe(end - begin);
  obs->iteration = 0;
}

}  // namespace

Transport::Tag WireCollectives::NextBaseTag() {
  const Tag base = epoch_ * kTagsPerEpoch;
  PSRA_CHECK(base + kTagsPerEpoch <= Transport::kMaxCollectiveTag,
             "wire collective tag space exhausted");
  ++epoch_;
  return base;
}

void WireCollectives::AllreduceDense(AllreduceKind kind,
                                     std::span<const Transport::Rank> members,
                                     const linalg::DenseVector& input,
                                     linalg::DenseVector& out, WireStats& st) {
  st.Reset();
  Wire w(transport_, members, obs_);
  Scratch sc;
  const Tag base = NextBaseTag();
  if (obs_ == nullptr) {
    RunDense(kind, w, base, pricing_, input, out, sc, st);
    return;
  }
  obs_->iteration = epoch_;  // 1-based collective epoch, lockstep everywhere
  const double begin = obs_->Now();
  RunDense(kind, w, base, pricing_, input, out, sc, st);
  FinishCollective(obs_, "wire_allreduce", AlgName(kind), begin);
}

void WireCollectives::AllreduceSparse(AllreduceKind kind,
                                      std::span<const Transport::Rank> members,
                                      const linalg::SparseVector& input,
                                      linalg::SparseVector& out,
                                      WireStats& st) {
  st.Reset();
  Wire w(transport_, members, obs_);
  Scratch sc;
  const Tag base = NextBaseTag();
  if (obs_ == nullptr) {
    RunSparse(kind, w, base, pricing_, input, out, sc, st);
    return;
  }
  obs_->iteration = epoch_;
  const double begin = obs_->Now();
  RunSparse(kind, w, base, pricing_, input, out, sc, st);
  FinishCollective(obs_, "wire_allreduce", AlgName(kind), begin);
}

namespace {

/// Shared rack/leader geometry for the multi-level entry points.
struct Hierarchy {
  std::span<const Rank> rack;     // my rack's members
  std::vector<Rank> leaders;      // first member of each rack
  std::uint32_t my_rack = 0;
  bool is_leader = false;
  Rank my_leader = 0;             // transport rank of my rack's leader
  std::uint32_t per_rack = 0;

  Hierarchy(const Transport& t, std::span<const Rank> members,
            std::uint32_t per_rack_in) {
    per_rack = per_rack_in;
    PSRA_REQUIRE(per_rack > 0 && members.size() % per_rack == 0,
                 "members must split into equal racks");
    const std::size_t racks = members.size() / per_rack;
    leaders.reserve(racks);
    std::size_t my_index = members.size();
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (members[i] == t.rank()) my_index = i;
    }
    PSRA_REQUIRE(my_index < members.size(),
                 "calling rank is not a member of this collective");
    for (std::size_t r = 0; r < racks; ++r) {
      leaders.push_back(members[r * per_rack]);
    }
    my_rack = static_cast<std::uint32_t>(my_index / per_rack);
    rack = members.subspan(static_cast<std::size_t>(my_rack) * per_rack,
                           per_rack);
    is_leader = my_index % per_rack == 0;
    my_leader = rack[0];
  }
};

void FoldStageTraffic(WireStats& st, const WireStats& stage) {
  st.elements_sent += stage.elements_sent;
  st.messages_sent += stage.messages_sent;
  st.bytes_sent += stage.bytes_sent;
}

}  // namespace

void WireCollectives::MultiLevelDense(AllreduceKind kind,
                                      std::span<const Transport::Rank> members,
                                      std::uint32_t per_rack,
                                      const linalg::DenseVector& input,
                                      linalg::DenseVector& out, WireStats& st) {
  st.Reset();
  Hierarchy h(transport_, members, per_rack);
  // Epochs advance identically on every rank, leader or not.
  const Tag rack_tag = NextBaseTag();
  const Tag root_tag = NextBaseTag();
  const Tag redist_tag = NextBaseTag();
  const double obs_begin = obs_ != nullptr ? obs_->Now() : 0.0;
  if (obs_ != nullptr) obs_->iteration = epoch_;

  Scratch sc;
  WireStats stage;
  linalg::DenseVector rack_sum;
  {
    Wire w(transport_, h.rack, obs_);
    RunDense(kind, w, rack_tag, pricing_, input, rack_sum, sc, stage);
  }
  FoldStageTraffic(st, stage);
  st.rack_rounds = stage.rounds;

  if (h.is_leader) {
    stage.Reset();
    Wire w(transport_, h.leaders, obs_);
    RunDense(kind, w, root_tag, pricing_, rack_sum, out, sc, stage);
    FoldStageTraffic(st, stage);
    st.root_rounds = stage.rounds;
    // Redistribute: serialize the global sum to my rack peers (ascending),
    // accounted separately like the simulator's stage 3.
    StageSpan redist(obs_, "redistribute");
    for (std::size_t m = 1; m < h.rack.size(); ++m) {
      transport_.Post(h.rack[m], redist_tag,
                      std::as_bytes(std::span<const double>(out)));
      st.redist_elements += out.size();
      ++st.redist_messages;
    }
  } else {
    StageSpan redist(obs_, "redistribute");
    std::vector<std::byte> buf;
    transport_.Recv(h.my_leader, redist_tag, buf);
    out.resize(buf.size() / sizeof(double));
    std::memcpy(out.data(), buf.data(), buf.size());
  }
  st.rounds = st.rack_rounds + st.root_rounds;
  if (obs_ != nullptr) {
    FinishCollective(obs_, "wire_multilevel",
                     std::string(AlgName(kind)) + "_ml", obs_begin);
  }
}

void WireCollectives::MultiLevelSparse(
    AllreduceKind kind, std::span<const Transport::Rank> members,
    std::uint32_t per_rack, const linalg::SparseVector& input,
    linalg::SparseVector& out, WireStats& st) {
  st.Reset();
  Hierarchy h(transport_, members, per_rack);
  const Tag rack_tag = NextBaseTag();
  const Tag root_tag = NextBaseTag();
  const Tag redist_tag = NextBaseTag();
  const double obs_begin = obs_ != nullptr ? obs_->Now() : 0.0;
  if (obs_ != nullptr) obs_->iteration = epoch_;

  Scratch sc;
  WireStats stage;
  linalg::SparseVector rack_sum;
  {
    Wire w(transport_, h.rack, obs_);
    RunSparse(kind, w, rack_tag, pricing_, input, rack_sum, sc, stage);
  }
  FoldStageTraffic(st, stage);
  st.rack_rounds = stage.rounds;

  if (h.is_leader) {
    stage.Reset();
    Wire w(transport_, h.leaders, obs_);
    RunSparse(kind, w, root_tag, pricing_, rack_sum, out, sc, stage);
    FoldStageTraffic(st, stage);
    st.root_rounds = stage.rounds;
    StageSpan redist(obs_, "redistribute");
    Wire rack_wire(transport_, h.rack);
    for (std::size_t m = 1; m < h.rack.size(); ++m) {
      rack_wire.PostSparse(static_cast<GroupRank>(m), redist_tag, out,
                           sc.bytes);
      st.redist_elements += out.nnz();
      ++st.redist_messages;
    }
  } else {
    StageSpan redist(obs_, "redistribute");
    Wire rack_wire(transport_, h.rack);
    rack_wire.RecvSparse(0, redist_tag, input.dim(), out, sc.bytes, sc.idx,
                         sc.val);
  }
  st.rounds = st.rack_rounds + st.root_rounds;
  if (obs_ != nullptr) {
    FinishCollective(obs_, "wire_multilevel",
                     std::string(AlgName(kind)) + "_ml", obs_begin);
  }
}

}  // namespace psra::comm
