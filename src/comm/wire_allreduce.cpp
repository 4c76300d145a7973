#include "comm/wire_allreduce.hpp"

#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>

#include "comm/schedule.hpp"
#include "obs/wire.hpp"
#include "support/status.hpp"

namespace psra::comm {

/// Frame, fold and receive buffers, kept by one WireCollectives across its
/// collectives: each reuses the storage the previous one grew.
struct WireScratch {
  std::vector<std::byte> bytes;    // the frame being posted or received
  std::vector<std::uint64_t> idx;  // a sparse frame's indices
  std::vector<double> val;         // its values, or a received dense block
  // One fold per block, by payload kind; every fold writes into the sum.
  std::tuple<std::vector<linalg::DenseBlockFold>, std::vector<PricedBlockFold>>
      folds;
  linalg::DenseVector held;      // a SparseVector collective's sum
  linalg::DenseVector rack_sum;  // a multi-level collective's rack stage sum
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
/// the block it fills.
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

  /// Dense frame: the raw doubles.
  void Post(GroupRank to, Tag tag, std::span<const double> x) {
    t.Post(members[to], tag, std::as_bytes(x));
  }

  /// Stages a sparse frame of entries `e`.
  void Frame(const SparseSlice& e) {
    const std::uint64_t nnz = e.indices.size();
    std::byte* p = Stage(FrameKind::kSparse, sizeof(nnz) + nnz * kEntry);
    std::memcpy(p, &nnz, sizeof(nnz));
    p += sizeof(nnz);
    // An empty vector's data() may be null, which memcpy does not accept
    // even for a zero length.
    if (nnz != 0) {
      std::memcpy(p, e.indices.data(), nnz * sizeof(std::uint64_t));
      p += nnz * sizeof(std::uint64_t);
      std::memcpy(p, e.values.data(), nnz * sizeof(double));
    }
  }

  /// Stages complete block `x`, which covers [lo, lo + x.size()), in
  /// encoding `e`: its canonical entries, or its values.
  void Frame(std::uint64_t lo, std::span<const double> x, Encoding e) {
    if (e.sparse) {
      linalg::CompactEntries(
          lo, x, [&](std::size_t k) { return linalg::IsCanonicalEntry(x[k]); },
          idx, val);
      Frame(SparseSlice{idx, val});
      return;
    }
    std::byte* p = Stage(FrameKind::kDense, x.size_bytes());
    if (!x.empty()) std::memcpy(p, x.data(), x.size_bytes());  // as above
  }

  /// Posts the staged frame.
  void PostFrame(GroupRank to, Tag tag) { t.Post(members[to], tag, bytes); }

  /// Receives exactly out.size() doubles.
  void Recv(GroupRank from, Tag tag, std::span<double> out) {
    t.Recv(members[from], tag, bytes);
    PSRA_REQUIRE(bytes.size() == out.size() * sizeof(double),
                 "dense payload size mismatch");
    if (!bytes.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
  }

  /// Receives the entries a reduce phase folds into block [lo, hi): a
  /// sparse frame.
  SparseSlice RecvEntries(GroupRank from, Tag tag, std::uint64_t lo,
                          std::uint64_t hi) {
    PSRA_REQUIRE(RecvFrame(from, tag) == FrameKind::kSparse,
                 "a reduce phase takes sparse frames only");
    return DecodeEntries(lo, hi);
  }

  /// Receives complete block [lo, lo + out.size()) of a sparse payload into
  /// `out`, in whichever encoding its frame says.
  void RecvBlock(GroupRank from, Tag tag, std::uint64_t lo,
                 std::span<double> out) {
    if (RecvFrame(from, tag) == FrameKind::kDense) {
      PSRA_REQUIRE(bytes.size() == sizeof(FrameKind) + out.size_bytes(),
                   "dense block payload size mismatch");
      if (!out.empty()) {
        std::memcpy(out.data(), bytes.data() + sizeof(FrameKind),
                    out.size_bytes());
      }
      return;
    }
    const SparseSlice e = DecodeEntries(lo, lo + out.size());
    linalg::SetZero(out);
    for (std::size_t k = 0; k < e.indices.size(); ++k) {
      out[e.indices[k] - lo] = e.values[k];
    }
  }

 private:
  static constexpr std::size_t kEntry = sizeof(std::uint64_t) + sizeof(double);

  /// Sizes the frame to `body` bytes after its kind and returns the body.
  std::byte* Stage(FrameKind kind, std::size_t body) {
    bytes.resize(sizeof(kind) + body);
    std::memcpy(bytes.data(), &kind, sizeof(kind));
    return bytes.data() + sizeof(kind);
  }

  /// Receives a sparse payload's frame and returns its kind, which is known.
  FrameKind RecvFrame(GroupRank from, Tag tag) {
    t.Recv(members[from], tag, bytes);
    FrameKind kind{};
    PSRA_REQUIRE(bytes.size() >= sizeof(kind), "sparse payload too short");
    std::memcpy(&kind, bytes.data(), sizeof(kind));
    PSRA_REQUIRE(kind == FrameKind::kSparse || kind == FrameKind::kDense,
                 "unknown sparse frame kind");
    return kind;
  }

  /// Decodes the received sparse frame into idx/val. Its indices must be
  /// strictly increasing and lie in [lo, hi).
  SparseSlice DecodeEntries(std::uint64_t lo, std::uint64_t hi) {
    const std::byte* p = bytes.data() + sizeof(FrameKind);
    const std::size_t body = bytes.size() - sizeof(FrameKind);
    std::uint64_t nnz = 0;
    PSRA_REQUIRE(body >= sizeof(nnz), "sparse payload too short");
    std::memcpy(&nnz, p, sizeof(nnz));
    p += sizeof(nnz);
    // nnz is bounded by the frame before it enters any size arithmetic.
    PSRA_REQUIRE(nnz <= (body - sizeof(nnz)) / kEntry &&
                     body == sizeof(nnz) + kEntry * nnz,
                 "sparse payload size mismatch");
    idx.resize(nnz);
    val.resize(nnz);
    if (nnz != 0) {  // as in Frame: no null data() into memcpy
      std::memcpy(idx.data(), p, nnz * sizeof(std::uint64_t));
      p += nnz * sizeof(std::uint64_t);
      std::memcpy(val.data(), p, nnz * sizeof(double));
    }
    linalg::CheckEntries(idx, val, lo, hi);
    return {idx, val};
  }
};

/// The wire executor: this rank's part of schedule `s`. It posts the sends
/// the schedule gives it, then receives and folds (or stores) its blocks in
/// the schedule's order, all in `out`: each block has a fold, started when
/// this rank first folds or stores the block, and a rank folds a block in
/// one phase only. Returns the sum's entry count: its dimension for a dense
/// payload. A sparse block's count and frames come from its fold (rule 4).
template <typename T>
std::size_t RunSchedule(const Schedule& s, Wire& w, Tag base, ElemPricing pr,
                        const typename Payload<T>::Vector& input,
                        linalg::DenseVector& out, WireScratch& sc,
                        WireStats& st) {
  using P = Payload<T>;
  const std::uint64_t dim = P::Dim(input);
  auto& folds = std::get<std::vector<typename P::Fold>>(sc.folds);
  folds.resize(s.num_blocks());
  out.resize(static_cast<std::size_t>(dim));
  auto held = [&](GroupRank b) {
    const auto [lo, hi] = s.BlockRange(dim, b);
    return std::span<double>(out).subspan(lo, hi - lo);
  };
  auto start = [&](GroupRank b) {
    const auto [lo, hi] = s.BlockRange(dim, b);
    P::Reset(folds[b], out, lo, hi, s, /*entries=*/true);
  };
  constexpr GroupRank kNone = ~GroupRank{0};
  GroupRank folding = kNone;
  bool completes = true;  // the running fold completes its block (rule 4)
  auto end_fold = [&] {
    if constexpr (P::kSparse) {
      if (folding != kNone && completes) folds[folding].Canonicalize();
    }
    folding = kNone;
  };
  auto fold_in = [&](GroupRank b, const auto& x) {
    if (b != folding) {
      end_fold();
      start(b);
      folding = b;
    }
    folds[b].Add(x);
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
    Encoding e;
    s.ForEachSend(p, w.me, [&](GroupRank to, GroupRank b) {
      const auto [lo, hi] = s.BlockRange(dim, b);
      if constexpr (P::kSparse) {
        if (ph.own_slice) {
          const SparseSlice x = P::Entries(input, lo, hi, sc.idx, sc.val);
          e = P::Encode(pr, ph, x.indices.size(), hi - lo);  // rule 5
          w.Frame(x);
        } else if (b != framed) {
          const auto& fold = folds[b];
          e = P::Encode(pr, ph, fold.size(), hi - lo);
          if (ph.reduce) {  // a ring partial: every entry carried so far
            linalg::CompactEntries(
                lo, held(b), [&](std::size_t k) { return fold.IsEntry(k); },
                sc.idx, sc.val);
            w.Frame(SparseSlice{sc.idx, sc.val});
          } else {
            w.Frame(lo, held(b), e);
          }
          framed = b;
        }
        w.PostFrame(to, tag);
        if (ph.skip_empty && e.elements == 0) return;  // rule 3
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
          w.RecvBlock(from, tag, lo, held(b));
          folds[b].Hold(held(b));
        } else {
          w.Recv(from, tag, held(b));
        }
      } else if (from == w.me) {
        fold_in(b, P::In(input, lo, hi));
      } else if constexpr (P::kSparse) {
        fold_in(b, w.RecvEntries(from, tag, lo, hi));
      } else {
        sc.val.resize(static_cast<std::size_t>(hi - lo));
        w.Recv(from, tag, std::span<double>(sc.val));
        fold_in(b, std::span<const double>(sc.val));
      }
    });
    end_fold();
  }
  stage.reset();
  if constexpr (P::kSparse) {
    std::size_t nnz = 0;
    for (const auto& fold : folds) nnz += fold.size();
    return nnz;
  } else {
    return static_cast<std::size_t>(dim);
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

template <typename T, typename V>
std::size_t WireCollectives::Allreduce(AllreduceKind kind,
                                       std::span<const Transport::Rank> members,
                                       const V& input, linalg::DenseVector& out,
                                       WireStats& st) {
  st.Reset();
  WireScratch& sc = *scratch_;
  Wire w(transport_, members, sc, obs_);
  const Tag base = NextBaseTag();
  // 1-based collective epoch, lockstep everywhere.
  if (obs_ != nullptr) obs_->iteration = epoch_;
  const double begin = obs_ != nullptr ? obs_->Now() : 0.0;
  const std::size_t nnz = RunSchedule<T>(Schedule(kind, w.size()), w, base,
                                         pricing_, input, out, sc, st);
  if (obs_ != nullptr) {
    FinishCollective(obs_, "wire_allreduce", AllreduceAlgorithm(kind).Name(),
                     begin);
  }
  return nnz;
}

template <bool kSparse>
std::size_t WireCollectives::MultiLevel(
    AllreduceKind kind, std::span<const Transport::Rank> members,
    std::uint32_t per_rack, const linalg::DenseVector& input,
    linalg::DenseVector& out, WireStats& st) {
  using RackStage = std::conditional_t<
      kSparse, PricedSparse<SparseEntries::kPacked>, linalg::DenseVector>;
  using RootStage = std::conditional_t<
      kSparse, PricedSparse<SparseEntries::kCanonical>, linalg::DenseVector>;
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
  {
    Wire w(transport_, h.rack, sc, obs_);
    RunSchedule<RackStage>(Schedule(kind, w.size()), w, rack_tag, pricing_,
                           input, sc.rack_sum, sc, stage);
  }
  FoldStageTraffic(st, stage);
  st.rack_rounds = stage.rounds;

  Wire rack(transport_, h.rack, sc);
  const std::size_t dim = input.size();
  std::size_t nnz = dim;
  if (h.is_leader) {
    stage.Reset();
    Wire w(transport_, h.leaders, sc, obs_);
    nnz = RunSchedule<RootStage>(Schedule(kind, w.size()), w, root_tag,
                                 pricing_, sc.rack_sum, out, sc, stage);
    FoldStageTraffic(st, stage);
    st.root_rounds = stage.rounds;
    // Redistribute: serialize the global sum to my rack peers (ascending),
    // accounted separately like the simulator's stage 3.
    // A sparse sum travels in the cheaper encoding for its nnz (rule 5).
    StageSpan redist(obs_, "redistribute");
    const Encoding e =
        kSparse ? pricing_.Cheaper(nnz, dim) : Encoding{false, dim};
    if (kSparse) rack.Frame(0, out, e);
    for (GroupRank m = 1; m < rack.size(); ++m) {
      if (kSparse) {
        rack.PostFrame(m, redist_tag);
      } else {
        rack.Post(m, redist_tag, out);
      }
      st.redist_elements += e.elements;
      ++st.redist_messages;
    }
  } else {
    StageSpan redist(obs_, "redistribute");
    out.resize(dim);
    if (kSparse) {
      rack.RecvBlock(0, redist_tag, 0, out);
      nnz = CountEntries(out, SparseEntries::kCanonical);
    } else {
      rack.Recv(0, redist_tag, out);
    }
  }
  st.rounds = st.rack_rounds + st.root_rounds;
  if (obs_ != nullptr) {
    FinishCollective(obs_, "wire_multilevel",
                     AllreduceAlgorithm(kind).Name() + "_ml", obs_begin);
  }
  return nnz;
}

void WireCollectives::AllreduceDense(AllreduceKind kind,
                                     std::span<const Transport::Rank> members,
                                     const linalg::DenseVector& input,
                                     linalg::DenseVector& out, WireStats& st) {
  Allreduce<linalg::DenseVector>(kind, members, input, out, st);
}

void WireCollectives::AllreduceSparse(AllreduceKind kind,
                                      std::span<const Transport::Rank> members,
                                      const linalg::SparseVector& input,
                                      linalg::SparseVector& out,
                                      WireStats& st) {
  WireScratch& sc = *scratch_;
  Allreduce<linalg::SparseVector>(kind, members, input, sc.held, st);
  out.AssignFromDenseBlock(input.dim(), 0, sc.held);
}

std::size_t WireCollectives::AllreduceSparse(
    AllreduceKind kind, std::span<const Transport::Rank> members,
    const linalg::DenseVector& input, linalg::DenseVector& out,
    WireStats& st) {
  PSRA_REQUIRE(&input != &out, "the sum must not alias the input");
  return Allreduce<PricedSparse<SparseEntries::kPacked>>(kind, members, input,
                                                         out, st);
}

void WireCollectives::MultiLevelDense(AllreduceKind kind,
                                      std::span<const Transport::Rank> members,
                                      std::uint32_t per_rack,
                                      const linalg::DenseVector& input,
                                      linalg::DenseVector& out, WireStats& st) {
  MultiLevel<false>(kind, members, per_rack, input, out, st);
}

std::size_t WireCollectives::MultiLevelSparse(
    AllreduceKind kind, std::span<const Transport::Rank> members,
    std::uint32_t per_rack, const linalg::DenseVector& input,
    linalg::DenseVector& out, WireStats& st) {
  return MultiLevel<true>(kind, members, per_rack, input, out, st);
}

}  // namespace psra::comm
