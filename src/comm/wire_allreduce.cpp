#include "comm/wire_allreduce.hpp"

#include <cstring>
#include <optional>
#include <string>
#include <tuple>

#include "comm/schedule.hpp"
#include "obs/wire.hpp"
#include "support/status.hpp"

namespace psra::comm {

namespace {

using Rank = Transport::Rank;
using Tag = Transport::Tag;

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

/// Group-rank addressing over the transport: members[g] is the transport
/// rank of group rank g. Frames are staged in reusable buffers, and every
/// receive checks its frame against the shape of the vector it fills.
struct Wire {
  Transport& t;
  std::span<const Rank> members;
  GroupRank me = 0;
  obs::WireObs* obs = nullptr;
  std::vector<std::byte> bytes;
  std::vector<std::uint64_t> idx;
  std::vector<double> val;

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

  /// Dense frame: the raw doubles. Returns the elements posted.
  std::size_t Post(GroupRank to, Tag tag, std::span<const double> x) {
    t.Post(members[to], tag, std::as_bytes(x));
    return x.size();
  }

  /// Sparse frame: u64 nnz | nnz * u64 index | nnz * double value.
  std::size_t Post(GroupRank to, Tag tag, const linalg::SparseVector& v) {
    const std::uint64_t nnz = v.nnz();
    bytes.resize(sizeof(std::uint64_t) * (1 + nnz) + sizeof(double) * nnz);
    std::byte* p = bytes.data();
    std::memcpy(p, &nnz, sizeof(nnz));
    p += sizeof(nnz);
    // An empty vector's data() may be null, which memcpy does not accept
    // even for a zero length.
    if (nnz != 0) {
      std::memcpy(p, v.indices().data(), nnz * sizeof(std::uint64_t));
      p += nnz * sizeof(std::uint64_t);
      std::memcpy(p, v.values().data(), nnz * sizeof(double));
    }
    t.Post(members[to], tag, bytes);
    return nnz;
  }

  /// Receives exactly out.size() doubles.
  void Recv(GroupRank from, Tag tag, std::span<double> out) {
    t.Recv(members[from], tag, bytes);
    PSRA_REQUIRE(bytes.size() == out.size() * sizeof(double),
                 "dense payload size mismatch");
    if (!bytes.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
  }

  /// Receives a sparse frame over out.dim() into `out`.
  void Recv(GroupRank from, Tag tag, linalg::SparseVector& out) {
    t.Recv(members[from], tag, bytes);
    PSRA_REQUIRE(bytes.size() >= sizeof(std::uint64_t),
                 "sparse payload too short");
    std::uint64_t nnz = 0;
    const std::byte* p = bytes.data();
    std::memcpy(&nnz, p, sizeof(nnz));
    p += sizeof(nnz);
    PSRA_REQUIRE(bytes.size() == sizeof(std::uint64_t) * (1 + nnz) +
                                     sizeof(double) * nnz,
                 "sparse payload size mismatch");
    idx.resize(nnz);
    val.resize(nnz);
    if (nnz != 0) {  // as in Post: no null data() into memcpy
      std::memcpy(idx.data(), p, nnz * sizeof(std::uint64_t));
      p += nnz * sizeof(std::uint64_t);
      std::memcpy(val.data(), p, nnz * sizeof(double));
    }
    out = linalg::SparseVector(out.dim(), idx, val);
  }
};

/// Reused fold/receive scratch, one set per collective invocation.
struct Scratch {
  std::tuple<linalg::DenseBlockFold, linalg::SparseBlockFold> folds;
  linalg::DenseVector dense;    // a received dense block
  linalg::SparseVector sparse;  // a received sparse block or an own slice
  std::vector<linalg::SparseVector> blocks;  // sparse blocks until the end
};

/// The wire executor: this rank's part of schedule `s`. It posts the sends
/// the schedule gives it, then receives and folds (or stores) its blocks in
/// the schedule's order. Dense blocks live in `out` itself; sparse blocks in
/// sc.blocks until they are concatenated into `out`.
template <typename V>
void RunSchedule(const Schedule& s, Wire& w, Tag base, ElemPricing pr,
                 const V& input, V& out, Scratch& sc, WireStats& st) {
  using P = Payload<V>;
  const std::uint64_t dim = P::Dim(input);
  const std::size_t eb = pr.PerElement(P::kSparse);
  auto& fold = std::get<typename P::Fold>(sc.folds);
  if constexpr (P::kSparse) sc.blocks.resize(s.num_blocks());
  P::Resize(out, dim);
  // Block b as this rank holds it.
  auto held = [&](GroupRank b) -> decltype(auto) {
    if constexpr (P::kSparse) {
      return (sc.blocks[b]);
    } else {
      const auto [lo, hi] = s.BlockRange(dim, b);
      return std::span<double>(out).subspan(lo, hi - lo);
    }
  };
  constexpr GroupRank kNone = ~GroupRank{0};
  GroupRank folding = kNone;
  auto end_fold = [&] {
    if constexpr (P::kSparse) {
      if (folding != kNone) {
        held(folding).Clear(dim);
        fold.AppendTo(held(folding));
      }
    }
    folding = kNone;
  };
  auto fold_in = [&](GroupRank b, const auto& x) {
    if (b != folding) {
      end_fold();
      const auto [lo, hi] = s.BlockRange(dim, b);
      P::Reset(fold, out, lo, hi, s.dense_folds_from_zero());
      folding = b;
    }
    fold.Add(x);
  };

  if (s.num_phases() == 0) {  // a lone rank folds its own input once
    fold_in(0, P::In(input, 0, dim));
    end_fold();
  }
  std::optional<StageSpan> stage;
  for (std::size_t p = 0; p < s.num_phases(); ++p) {
    const SchedulePhase ph = s.phase(p);
    if (!stage || std::strcmp(stage->name, ph.stage) != 0) {
      stage.reset();
      stage.emplace(w.obs, ph.stage);
    }
    const Tag tag = base + (ph.reduce ? 0 : 1);
    s.ForEachSend(p, w.me, [&](GroupRank to, GroupRank b) {
      const auto [lo, hi] = s.BlockRange(dim, b);
      std::size_t elems = 0;
      if (!ph.own_slice) {
        elems = w.Post(to, tag, held(b));
      } else if constexpr (P::kSparse) {
        input.SliceInto(lo, hi, sc.sparse);
        elems = w.Post(to, tag, sc.sparse);
      } else {
        elems = w.Post(to, tag, P::In(input, lo, hi));
      }
      if (!(P::kSparse && ph.skip_empty && elems == 0)) st.CountSend(elems, eb);
    });
    ++st.rounds;
    s.ForEachRecv(p, w.me, [&](GroupRank from, GroupRank b) {
      const auto [lo, hi] = s.BlockRange(dim, b);
      if (!ph.reduce) {
        if constexpr (P::kSparse) held(b).Clear(dim);
        w.Recv(from, tag, held(b));
      } else if (from == w.me) {
        fold_in(b, P::In(input, lo, hi));
      } else if constexpr (P::kSparse) {
        sc.sparse.Clear(dim);
        w.Recv(from, tag, sc.sparse);
        fold_in(b, sc.sparse);
      } else {
        sc.dense.resize(static_cast<std::size_t>(hi - lo));
        w.Recv(from, tag, std::span<double>(sc.dense));
        fold_in(b, std::span<const double>(sc.dense));
      }
    });
    end_fold();
  }
  stage.reset();
  if constexpr (P::kSparse) {
    linalg::SparseVector::ConcatDisjointInto(sc.blocks, out);
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

/// Shared rack/leader geometry for the multi-level entry points.
struct Hierarchy {
  std::span<const Rank> rack;     // my rack's members
  std::vector<Rank> leaders;      // first member of each rack
  bool is_leader = false;

  Hierarchy(const Transport& t, std::span<const Rank> members,
            std::uint32_t per_rack) {
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
    rack = members.subspan(my_index - my_index % per_rack, per_rack);
    is_leader = my_index % per_rack == 0;
  }
};

void FoldStageTraffic(WireStats& st, const WireStats& stage) {
  st.elements_sent += stage.elements_sent;
  st.messages_sent += stage.messages_sent;
  st.bytes_sent += stage.bytes_sent;
}

}  // namespace

Transport::Tag WireCollectives::NextBaseTag() {
  const Tag base = epoch_ * kTagsPerEpoch;
  PSRA_CHECK(base + kTagsPerEpoch <= Transport::kMaxCollectiveTag,
             "wire collective tag space exhausted");
  ++epoch_;
  return base;
}

template <typename V>
void WireCollectives::Allreduce(AllreduceKind kind,
                                std::span<const Transport::Rank> members,
                                const V& input, V& out, WireStats& st) {
  st.Reset();
  Wire w(transport_, members, obs_);
  Scratch sc;
  const Tag base = NextBaseTag();
  // 1-based collective epoch, lockstep everywhere.
  if (obs_ != nullptr) obs_->iteration = epoch_;
  const double begin = obs_ != nullptr ? obs_->Now() : 0.0;
  RunSchedule(Schedule(kind, w.size()), w, base, pricing_, input, out, sc, st);
  if (obs_ != nullptr) {
    FinishCollective(obs_, "wire_allreduce", AllreduceAlgorithm(kind).Name(),
                     begin);
  }
}

template <typename V>
void WireCollectives::MultiLevel(AllreduceKind kind,
                                 std::span<const Transport::Rank> members,
                                 std::uint32_t per_rack, const V& input,
                                 V& out, WireStats& st) {
  st.Reset();
  const Hierarchy h(transport_, members, per_rack);
  // Epochs advance identically on every rank, leader or not.
  const Tag rack_tag = NextBaseTag();
  const Tag root_tag = NextBaseTag();
  const Tag redist_tag = NextBaseTag();
  const double obs_begin = obs_ != nullptr ? obs_->Now() : 0.0;
  if (obs_ != nullptr) obs_->iteration = epoch_;

  Scratch sc;
  WireStats stage;
  V rack_sum;
  {
    Wire w(transport_, h.rack, obs_);
    RunSchedule(Schedule(kind, w.size()), w, rack_tag, pricing_, input,
                rack_sum, sc, stage);
  }
  FoldStageTraffic(st, stage);
  st.rack_rounds = stage.rounds;

  Wire rack(transport_, h.rack);
  if (h.is_leader) {
    stage.Reset();
    Wire w(transport_, h.leaders, obs_);
    RunSchedule(Schedule(kind, w.size()), w, root_tag, pricing_, rack_sum,
                out, sc, stage);
    FoldStageTraffic(st, stage);
    st.root_rounds = stage.rounds;
    // Redistribute: serialize the global sum to my rack peers (ascending),
    // accounted separately like the simulator's stage 3.
    StageSpan redist(obs_, "redistribute");
    for (GroupRank m = 1; m < rack.size(); ++m) {
      st.redist_elements += rack.Post(m, redist_tag, out);
      ++st.redist_messages;
    }
  } else {
    StageSpan redist(obs_, "redistribute");
    Payload<V>::Resize(out, Payload<V>::Dim(input));
    rack.Recv(0, redist_tag, out);
  }
  st.rounds = st.rack_rounds + st.root_rounds;
  if (obs_ != nullptr) {
    FinishCollective(obs_, "wire_multilevel",
                     AllreduceAlgorithm(kind).Name() + "_ml", obs_begin);
  }
}

void WireCollectives::AllreduceDense(AllreduceKind kind,
                                     std::span<const Transport::Rank> members,
                                     const linalg::DenseVector& input,
                                     linalg::DenseVector& out, WireStats& st) {
  Allreduce(kind, members, input, out, st);
}

void WireCollectives::AllreduceSparse(AllreduceKind kind,
                                      std::span<const Transport::Rank> members,
                                      const linalg::SparseVector& input,
                                      linalg::SparseVector& out,
                                      WireStats& st) {
  Allreduce(kind, members, input, out, st);
}

void WireCollectives::MultiLevelDense(AllreduceKind kind,
                                      std::span<const Transport::Rank> members,
                                      std::uint32_t per_rack,
                                      const linalg::DenseVector& input,
                                      linalg::DenseVector& out, WireStats& st) {
  MultiLevel(kind, members, per_rack, input, out, st);
}

void WireCollectives::MultiLevelSparse(
    AllreduceKind kind, std::span<const Transport::Rank> members,
    std::uint32_t per_rack, const linalg::SparseVector& input,
    linalg::SparseVector& out, WireStats& st) {
  MultiLevel(kind, members, per_rack, input, out, st);
}

}  // namespace psra::comm
