#include "comm/wire_allreduce.hpp"

#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <tuple>

#include "comm/schedule.hpp"
#include "obs/wire.hpp"
#include "support/status.hpp"

namespace psra::comm {

/// Frame, fold and receive buffers, kept by one WireCollectives across its
/// collectives: each reuses the storage the previous one grew.
struct WireScratch {
  std::vector<std::byte> bytes;    // the frame being posted or received
  std::vector<std::uint64_t> idx;  // a sparse frame's indices
  std::vector<double> val;         // its values, or a dense frame's block
  std::tuple<linalg::DenseBlockFold, linalg::SparseBlockFold> folds;
  linalg::DenseVector dense;    // a received dense block
  linalg::SparseVector sparse;  // a received sparse block or an own slice
  std::vector<linalg::SparseVector> blocks;  // sparse blocks until the end
};

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

/// What a sparse-payload frame carries, in its leading u64.
enum class FrameKind : std::uint64_t { kSparse = 1, kDense = 2 };

/// Group-rank addressing over the transport: members[g] is the transport
/// rank of group rank g. Frames are staged and decoded in the scratch's
/// frame buffers, and every receive checks its frame against the shape of
/// the vector it fills.
///
/// Dense payloads travel as raw doubles. A sparse payload's frame starts
/// with its FrameKind: kSparse is followed by u64 nnz | nnz * u64 index |
/// nnz * double value, kDense by the block's values, with +0.0 where the
/// block has no entry.
struct Wire {
  Transport& t;
  std::span<const Rank> members;
  GroupRank me = 0;
  obs::WireObs* obs = nullptr;
  std::vector<std::byte>& bytes;
  std::vector<std::uint64_t>& idx;
  std::vector<double>& val;

  Wire(Transport& transport, std::span<const Rank> m, WireScratch& sc,
       obs::WireObs* o = nullptr)
      : t(transport), members(m), obs(o), bytes(sc.bytes), idx(sc.idx),
        val(sc.val) {
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

  /// Block [lo, hi) of `v`, whose entries all lie in it, in encoding `e`.
  void Post(GroupRank to, Tag tag, const linalg::SparseVector& v,
            std::uint64_t lo, std::uint64_t hi, Encoding e) {
    const FrameKind kind = e.sparse ? FrameKind::kSparse : FrameKind::kDense;
    const std::uint64_t nnz = v.nnz();
    bytes.resize(sizeof(kind) + (e.sparse ? sizeof(std::uint64_t) * (1 + nnz) +
                                                sizeof(double) * nnz
                                          : sizeof(double) * (hi - lo)));
    std::byte* p = bytes.data();
    std::memcpy(p, &kind, sizeof(kind));
    p += sizeof(kind);
    if (!e.sparse) {
      PSRA_CHECK(nnz == 0 || (lo <= v.indices().front() &&
                              v.indices().back() < hi),
                 "a dense frame's entries must lie in its block");
      std::memset(p, 0, bytes.size() - sizeof(kind));
      for (std::size_t k = 0; k < nnz; ++k) {
        std::memcpy(p + (v.indices()[k] - lo) * sizeof(double),
                    &v.values()[k], sizeof(double));
      }
    } else {
      std::memcpy(p, &nnz, sizeof(nnz));
      p += sizeof(nnz);
      // An empty vector's data() may be null, which memcpy does not accept
      // even for a zero length.
      if (nnz != 0) {
        std::memcpy(p, v.indices().data(), nnz * sizeof(std::uint64_t));
        p += nnz * sizeof(std::uint64_t);
        std::memcpy(p, v.values().data(), nnz * sizeof(double));
      }
    }
    t.Post(members[to], tag, bytes);
  }

  /// Posts the frame the last sparse Post built once more.
  void Repost(GroupRank to, Tag tag) { t.Post(members[to], tag, bytes); }

  /// Receives exactly out.size() doubles.
  void Recv(GroupRank from, Tag tag, std::span<double> out) {
    t.Recv(members[from], tag, bytes);
    PSRA_REQUIRE(bytes.size() == out.size() * sizeof(double),
                 "dense payload size mismatch");
    if (!bytes.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
  }

  /// Receives block [lo, hi) of a sparse payload over out.dim() into
  /// `out`, in whichever encoding its frame says. A sparse frame's indices
  /// must lie in the block; a dense frame decodes to the entries of a
  /// canonical block (SparseVector::AssignFromDenseBlock).
  void Recv(GroupRank from, Tag tag, std::uint64_t lo, std::uint64_t hi,
            linalg::SparseVector& out) {
    t.Recv(members[from], tag, bytes);
    FrameKind kind{};
    PSRA_REQUIRE(bytes.size() >= sizeof(kind), "sparse payload too short");
    const std::byte* p = bytes.data();
    std::memcpy(&kind, p, sizeof(kind));
    p += sizeof(kind);
    const std::size_t body = bytes.size() - sizeof(kind);
    if (kind == FrameKind::kDense) {
      PSRA_REQUIRE(body == sizeof(double) * (hi - lo),
                   "dense block payload size mismatch");
      val.resize(hi - lo);
      if (body != 0) std::memcpy(val.data(), p, body);  // as in Post
      out.AssignFromDenseBlock(out.dim(), lo, val);
      return;
    }
    PSRA_REQUIRE(kind == FrameKind::kSparse, "unknown sparse frame kind");
    std::uint64_t nnz = 0;
    PSRA_REQUIRE(body >= sizeof(nnz), "sparse payload too short");
    std::memcpy(&nnz, p, sizeof(nnz));
    p += sizeof(nnz);
    // nnz is bounded by the frame before it enters any size arithmetic.
    constexpr std::size_t kEntry = sizeof(std::uint64_t) + sizeof(double);
    PSRA_REQUIRE(nnz <= (body - sizeof(nnz)) / kEntry &&
                     body == sizeof(nnz) + kEntry * nnz,
                 "sparse payload size mismatch");
    idx.resize(nnz);
    val.resize(nnz);
    if (nnz != 0) {  // as in Post: no null data() into memcpy
      std::memcpy(idx.data(), p, nnz * sizeof(std::uint64_t));
      p += nnz * sizeof(std::uint64_t);
      std::memcpy(val.data(), p, nnz * sizeof(double));
    }
    out.AssignBlock(out.dim(), lo, hi, idx, val);
  }
};

/// The wire executor: this rank's part of schedule `s`. It posts the sends
/// the schedule gives it, then receives and folds (or stores) its blocks in
/// the schedule's order. Dense blocks live in `out` itself; sparse blocks in
/// sc.blocks until they are concatenated into `out`.
template <typename V>
void RunSchedule(const Schedule& s, Wire& w, Tag base, ElemPricing pr,
                 const V& input, V& out, WireScratch& sc, WireStats& st) {
  using P = Payload<V>;
  const std::uint64_t dim = P::Dim(input);
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
  bool completes = true;  // the running fold completes its block (rule 4)
  auto end_fold = [&] {
    if constexpr (P::kSparse) {
      if (folding != kNone) {
        if (completes) fold.Canonicalize();
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
      P::Reset(fold, out, lo, hi, s);
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
    completes = s.completes_blocks(p);
    const Tag tag = base + (ph.reduce ? 0 : 1);
    // A held block does not change while its phase sends, so one frame
    // serves every peer it goes to (psr allgather, naive broadcast).
    GroupRank framed = kNone;
    s.ForEachSend(p, w.me, [&](GroupRank to, GroupRank b) {
      const auto [lo, hi] = s.BlockRange(dim, b);
      if constexpr (P::kSparse) {
        const linalg::SparseVector* v = &held(b);
        if (ph.own_slice) {
          input.SliceInto(lo, hi, sc.sparse);
          v = &sc.sparse;
        }
        const Encoding e = P::Encode(pr, ph, v->nnz(), hi - lo);  // rule 5
        if (!ph.own_slice && b == framed) {
          w.Repost(to, tag);
        } else {
          w.Post(to, tag, *v, lo, hi, e);
          framed = ph.own_slice ? kNone : b;
        }
        if (ph.skip_empty && v->nnz() == 0) return;  // rule 3
        st.CountSend(e.elements, pr.PerElement(e.sparse));
      } else {
        if (ph.own_slice) {
          w.Post(to, tag, P::In(input, lo, hi));
        } else {
          w.Post(to, tag, held(b));
        }
        st.CountSend(hi - lo, pr.PerElement(false));
      }
    });
    ++st.rounds;
    s.ForEachRecv(p, w.me, [&](GroupRank from, GroupRank b) {
      const auto [lo, hi] = s.BlockRange(dim, b);
      if (!ph.reduce) {
        if constexpr (P::kSparse) {
          held(b).Clear(dim);
          w.Recv(from, tag, lo, hi, held(b));
        } else {
          w.Recv(from, tag, held(b));
        }
      } else if (from == w.me) {
        fold_in(b, P::In(input, lo, hi));
      } else if constexpr (P::kSparse) {
        sc.sparse.Clear(dim);
        w.Recv(from, tag, lo, hi, sc.sparse);
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

WireCollectives::WireCollectives(Transport& transport, ElemPricing pricing,
                                 obs::WireObs* obs)
    : transport_(transport),
      pricing_(pricing),
      obs_(obs),
      scratch_(std::make_unique<WireScratch>()) {}

WireCollectives::~WireCollectives() = default;

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
  WireScratch& sc = *scratch_;
  Wire w(transport_, members, sc, obs_);
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

  WireScratch& sc = *scratch_;
  WireStats stage;
  V rack_sum;
  {
    Wire w(transport_, h.rack, sc, obs_);
    RunSchedule(Schedule(kind, w.size()), w, rack_tag, pricing_, input,
                rack_sum, sc, stage);
  }
  FoldStageTraffic(st, stage);
  st.rack_rounds = stage.rounds;

  Wire rack(transport_, h.rack, sc);
  if (h.is_leader) {
    stage.Reset();
    Wire w(transport_, h.leaders, sc, obs_);
    RunSchedule(Schedule(kind, w.size()), w, root_tag, pricing_, rack_sum,
                out, sc, stage);
    FoldStageTraffic(st, stage);
    st.root_rounds = stage.rounds;
    // Redistribute: serialize the global sum to my rack peers (ascending),
    // accounted separately like the simulator's stage 3.
    // A sparse sum travels in the cheaper encoding for its nnz (rule 5).
    StageSpan redist(obs_, "redistribute");
    const std::uint64_t dim = Payload<V>::Dim(out);
    for (GroupRank m = 1; m < rack.size(); ++m) {
      if constexpr (Payload<V>::kSparse) {
        const Encoding e = pricing_.Cheaper(out.nnz(), dim);
        rack.Post(m, redist_tag, out, 0, dim, e);
        st.redist_elements += e.elements;
      } else {
        st.redist_elements += rack.Post(m, redist_tag, out);
      }
      ++st.redist_messages;
    }
  } else {
    StageSpan redist(obs_, "redistribute");
    const std::uint64_t dim = Payload<V>::Dim(input);
    Payload<V>::Resize(out, dim);
    if constexpr (Payload<V>::kSparse) {
      rack.Recv(0, redist_tag, 0, dim, out);
    } else {
      rack.Recv(0, redist_tag, out);
    }
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
