// psra_conformance: cross-backend conformance checker over real TCP
// sockets, one OS process per rank. Every rank derives the same
// deterministic inputs, runs the omniscient simulator locally as the
// reference, then runs the wire collectives over the transport and dies
// nonzero on any divergence: reduced values must match BITWISE, per-rank
// rounds must equal the simulator's, and rank 0 aggregates every rank's
// WireStats (shipped over the transport itself) to check the traffic
// counters (elements/messages/bytes) exactly.
//
// Two modes:
//   psra_conformance --ranks 8 [--dim 103]   self-forks via ForkRanks
//   PSRA_RANK=... psra_conformance           env-mode worker, for use
//                                            under tools/psra_launch:
//   psra_launch --ranks 4 -- ./psra_conformance --dim 103
//
// Covers psr/ring/naive x dense/sparse (plus empty-contribution sparse
// variants), psr and ring on the sparse payload the engines hold dense, and
// — when the world size is a multiple of 2 and >= 4 — the hierarchical
// rack/root/redistribute decomposition.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "comm/collective.hpp"
#include "comm/hierarchical.hpp"
#include "comm/transport.hpp"
#include "comm/wire_allreduce.hpp"
#include "comm/wire_obs.hpp"
#include "obs/wire.hpp"
#include "support/artifact_path.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "transport/launch.hpp"
#include "transport/tcp.hpp"

namespace {

using psra::comm::AllreduceKind;
using psra::comm::CommStats;
using psra::comm::GroupComm;
using psra::comm::Transport;
using psra::comm::TransportError;
using psra::comm::WireCollectives;
using psra::comm::WireStats;
using psra::linalg::DenseVector;
using psra::linalg::SparseVector;
using psra::simnet::Rank;
using psra::simnet::VirtualTime;
using psra::transport::TcpOptions;
using psra::transport::TcpTransport;

// Stats frames ride tags far above the wire collectives' epoch-derived
// range but still below Transport::kMaxCollectiveTag (the obs collection
// plane owns [kMaxCollectiveTag, kMaxUserTag)).
constexpr Transport::Tag kStatsBase = 0xFFFC0000u;

const char* AlgKey(AllreduceKind kind) {
  switch (kind) {
    case AllreduceKind::kPsr: return "psr";
    case AllreduceKind::kRing: return "ring";
    case AllreduceKind::kNaive: return "naive";
    default: return "other";
  }
}

DenseVector MakeDense(std::uint32_t rank, std::uint64_t dim) {
  psra::Rng rng(1234 + rank);
  DenseVector v(dim);
  for (auto& x : v) x = rng.NextDouble(-1.0, 1.0);
  return v;
}

SparseVector MakeSparse(std::uint32_t rank, std::uint64_t dim,
                        bool with_empty) {
  if (with_empty && rank == 0) return SparseVector(dim, {}, {});
  psra::Rng rng(99 + rank);
  std::vector<SparseVector::Index> idx;
  std::vector<double> val;
  for (std::uint64_t i = 0; i < dim; ++i) {
    if (rng.NextDouble() < 0.34) {
      idx.push_back(i);
      val.push_back(rng.NextDouble(-2.0, 2.0));
    }
  }
  return SparseVector(dim, std::move(idx), std::move(val));
}

/// A dense vector standing for a sparse one (the engines' payload): about
/// 60% of coordinates hold a value, so most reduced blocks travel dense in
/// the store phases. It also holds what is not an entry: on k % 7 == 0
/// rank 0 holds +c and rank 1 -c, which cancel to +0.0; on k % 7 == 3 the
/// last rank holds -0.0 and on k % 7 == 5 rank 0 holds NaN, which the
/// collective reads as +0.0. With `with_empty`, rank 0 holds no value.
DenseVector MakeHeldSparse(std::uint32_t rank, std::uint32_t world,
                           std::uint64_t dim, bool with_empty) {
  psra::Rng rng(733 + rank);
  DenseVector v(dim, 0.0);
  if (with_empty && rank == 0) return v;
  for (std::uint64_t i = 0; i < dim; ++i) {
    const double c = 0.5 + static_cast<double>(i);
    const double draw = rng.NextDouble(-2.0, 2.0);
    if (i % 7 == 0) {
      if (rank <= 1) v[i] = rank == 0 ? c : -c;
    } else if (i % 7 == 3) {
      if (rank + 1 == world) v[i] = -0.0;
    } else if (i % 7 == 5 && rank == 0) {
      v[i] = std::numeric_limits<double>::quiet_NaN();
    } else if (rng.NextDouble() < 0.6) {
      v[i] = draw;
    }
  }
  return v;
}

bool BitwiseEqual(const DenseVector& a, const DenseVector& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool BitwiseEqual(const SparseVector& a, const SparseVector& b) {
  return a.dim() == b.dim() && a.nnz() == b.nnz() &&
         std::equal(a.indices().begin(), a.indices().end(),
                    b.indices().begin()) &&
         (a.nnz() == 0 ||
          std::memcmp(a.values().data(), b.values().data(),
                      a.nnz() * sizeof(double)) == 0);
}

struct SimSide {
  explicit SimSide(std::uint32_t n, std::uint32_t racks = 1)
      : topo(n, 1, racks), cost(psra::simnet::CostModelConfig{}),
        group(MakeGroup(n)) {}

  GroupComm MakeGroup(std::uint32_t n) {
    std::vector<Rank> members(n);
    for (std::uint32_t i = 0; i < n; ++i) members[i] = i;
    return GroupComm(&topo, &cost, members);
  }

  psra::simnet::Topology topo;
  psra::simnet::CostModel cost;
  GroupComm group;
};

std::vector<Transport::Rank> AllRanks(std::uint32_t n) {
  std::vector<Transport::Rank> m(n);
  for (std::uint32_t i = 0; i < n; ++i) m[i] = i;
  return m;
}

/// A flat case's payload: dense, SparseVector, or sparse held dense.
enum class Payload { kDense, kSparse, kHeld };

struct Case {
  AllreduceKind kind;
  Payload payload;
  bool with_empty;
  const char* name;
};

constexpr Case kFlatCases[] = {
    {AllreduceKind::kPsr, Payload::kDense, false, "psr_dense"},
    {AllreduceKind::kPsr, Payload::kSparse, false, "psr_sparse"},
    {AllreduceKind::kPsr, Payload::kSparse, true, "psr_sparse_empty"},
    {AllreduceKind::kPsr, Payload::kHeld, false, "psr_sparse_held"},
    {AllreduceKind::kRing, Payload::kDense, false, "ring_dense"},
    {AllreduceKind::kRing, Payload::kSparse, false, "ring_sparse"},
    {AllreduceKind::kRing, Payload::kHeld, false, "ring_sparse_held"},
    {AllreduceKind::kNaive, Payload::kDense, false, "naive_dense"},
    {AllreduceKind::kNaive, Payload::kSparse, false, "naive_sparse"},
    {AllreduceKind::kNaive, Payload::kSparse, true, "naive_sparse_empty"},
};

void Fail(const char* case_name, const char* what) {
  throw TransportError(std::string("conformance [") + case_name + "]: " +
                       what);
}

/// Ships {elements, messages, bytes} to rank 0 and checks the aggregate
/// against the simulator's totals there.
void CheckAggregateTraffic(Transport& t, std::uint32_t world,
                           Transport::Tag tag, const WireStats& mine,
                           const CommStats& sim_stats,
                           const char* case_name) {
  if (t.rank() == 0) {
    std::size_t elems = mine.elements_sent, msgs = mine.messages_sent,
                bytes = mine.bytes_sent;
    std::vector<std::byte> buf;
    for (std::uint32_t r = 1; r < world; ++r) {
      t.Recv(r, tag, buf);
      std::size_t triple[3];
      std::memcpy(triple, buf.data(), sizeof(triple));
      elems += triple[0];
      msgs += triple[1];
      bytes += triple[2];
    }
    if (elems != sim_stats.elements_sent) Fail(case_name, "aggregate elements");
    if (msgs != sim_stats.messages_sent) Fail(case_name, "aggregate messages");
    if (bytes != sim_stats.bytes_sent) Fail(case_name, "aggregate bytes");
  } else {
    const std::size_t triple[3] = {mine.elements_sent, mine.messages_sent,
                                   mine.bytes_sent};
    t.Post(0, tag, std::as_bytes(std::span<const std::size_t>(triple)));
  }
}

void RunFlatCase(Transport& t, WireCollectives& wc, const Case& c,
                 std::uint32_t world, std::uint64_t dim,
                 Transport::Tag stats_tag, psra::obs::WireObs* obs) {
  SimSide sim(world);
  const std::vector<VirtualTime> starts(world, 0.0);
  const auto alg = psra::comm::MakeAllreduce(c.kind);
  const auto members = AllRanks(world);
  psra::comm::AllreduceScratch scratch;
  CommStats sim_stats;
  WireStats st;

  if (c.payload == Payload::kSparse) {
    std::vector<SparseVector> inputs;
    for (std::uint32_t r = 0; r < world; ++r) {
      inputs.push_back(MakeSparse(r, dim, c.with_empty));
    }
    SparseVector expected;
    alg->ReduceSparse(sim.group, inputs, starts, scratch, expected, sim_stats);
    SparseVector out;
    wc.AllreduceSparse(c.kind, members, inputs[t.rank()], out, st);
    if (!BitwiseEqual(out, expected)) Fail(c.name, "sparse value mismatch");
  } else if (c.payload == Payload::kHeld) {
    std::vector<DenseVector> inputs;
    for (std::uint32_t r = 0; r < world; ++r) {
      inputs.push_back(MakeHeldSparse(r, world, dim, c.with_empty));
    }
    DenseVector expected;
    const std::size_t nnz = alg->ReduceSparse(sim.group, inputs, starts,
                                              scratch, expected, sim_stats);
    DenseVector out;
    if (wc.AllreduceSparse(c.kind, members, inputs[t.rank()], out, st) !=
        nnz) {
      Fail(c.name, "entry count mismatch");
    }
    if (!BitwiseEqual(out, expected)) Fail(c.name, "held value mismatch");
  } else {
    std::vector<DenseVector> inputs;
    for (std::uint32_t r = 0; r < world; ++r) {
      inputs.push_back(MakeDense(r, dim));
    }
    DenseVector expected;
    alg->ReduceDense(sim.group, inputs, starts, scratch, expected, sim_stats);
    DenseVector out;
    wc.AllreduceDense(c.kind, members, inputs[t.rank()], out, st);
    if (!BitwiseEqual(out, expected)) Fail(c.name, "dense value mismatch");
  }
  if (st.rounds != sim_stats.rounds) Fail(c.name, "rounds mismatch");
  CheckAggregateTraffic(t, world, stats_tag, st, sim_stats, c.name);

  if (obs != nullptr) {
    // Measured traffic per rank: MergeFrom on rank 0 sums these across the
    // world, so the aggregate must equal the simulator's totals exactly —
    // the sim.* reference counters (global, published once on rank 0) are
    // what psra_report --assert-wire compares against.
    auto& m = obs->metrics();
    const std::string base = std::string("comm.allreduce.") + AlgKey(c.kind);
    m.Counter(base + ".invocations") += 1;
    m.Counter(base + ".elements") += st.elements_sent;
    m.Counter(base + ".messages") += st.messages_sent;
    m.Counter(base + ".bytes") += st.bytes_sent;
    if (t.rank() == 0) {
      // Per-rank rounds equal the simulator's phase count for flat
      // collectives, so rank 0's value IS the global figure.
      m.Counter(base + ".rounds") += st.rounds;
      m.Counter("sim." + base + ".elements") += sim_stats.elements_sent;
      m.Counter("sim." + base + ".messages") += sim_stats.messages_sent;
      m.Counter("sim." + base + ".bytes") += sim_stats.bytes_sent;
      m.Counter("sim." + base + ".rounds") += sim_stats.rounds;
    }
  }
}

/// Hierarchical conformance: racks of 2 over the whole world, PSR at both
/// levels (the paper's headline configuration), dense and sparse held
/// dense. Rank 0 aggregates the full per-stage stats 7-tuple.
void RunHierarchicalCase(Transport& t, WireCollectives& wc, bool sparse,
                         std::uint32_t world, std::uint64_t dim,
                         Transport::Tag stats_tag, const char* case_name,
                         psra::obs::WireObs* obs) {
  const std::uint32_t per_rack = 2, racks = world / per_rack;
  SimSide sim(world, racks);
  std::vector<Rank> members(world);
  for (std::uint32_t i = 0; i < world; ++i) members[i] = i;
  psra::comm::MultiLevelAllreduce ml(&sim.topo, &sim.cost, members);
  const auto alg = psra::comm::MakeAllreduce(AllreduceKind::kPsr);
  const std::vector<VirtualTime> starts(world, 0.0);
  psra::comm::AllreduceScratch scratch;
  CommStats sim_stats;
  WireStats st;
  const auto wire_members = AllRanks(world);

  if (sparse) {
    std::vector<DenseVector> inputs;
    for (std::uint32_t r = 0; r < world; ++r) {
      inputs.push_back(MakeHeldSparse(r, world, dim, /*with_empty=*/true));
    }
    DenseVector expected;
    const std::size_t nnz =
        ml.ReduceSparse(*alg, inputs, starts, scratch, expected, sim_stats);
    DenseVector out;
    if (wc.MultiLevelSparse(AllreduceKind::kPsr, wire_members, per_rack,
                            inputs[t.rank()], out, st) != nnz) {
      Fail(case_name, "entry count mismatch");
    }
    if (!BitwiseEqual(out, expected)) Fail(case_name, "value mismatch");
  } else {
    std::vector<DenseVector> inputs;
    for (std::uint32_t r = 0; r < world; ++r) {
      inputs.push_back(MakeDense(r, dim));
    }
    DenseVector expected;
    ml.ReduceDense(*alg, inputs, starts, scratch, expected, sim_stats);
    DenseVector out;
    wc.MultiLevelDense(AllreduceKind::kPsr, wire_members, per_rack,
                       inputs[t.rank()], out, st);
    if (!BitwiseEqual(out, expected)) Fail(case_name, "value mismatch");
  }

  if (t.rank() == 0) {
    // tuple = {elements, messages, bytes, rack_rounds, root_rounds,
    //          redist_elements, redist_messages}
    std::size_t elems = st.elements_sent, msgs = st.messages_sent,
                bytes = st.bytes_sent, rounds = 0,
                redist_e = st.redist_elements, redist_m = st.redist_messages;
    rounds += st.rack_rounds + st.root_rounds;  // rank 0 is a rack leader
    std::vector<std::byte> buf;
    for (std::uint32_t r = 1; r < world; ++r) {
      t.Recv(r, stats_tag, buf);
      std::size_t tup[7];
      std::memcpy(tup, buf.data(), sizeof(tup));
      elems += tup[0];
      msgs += tup[1];
      bytes += tup[2];
      if (r % per_rack == 0) rounds += tup[3];  // rack leaders only
      redist_e += tup[5];
      redist_m += tup[6];
    }
    if (elems != sim_stats.elements_sent) Fail(case_name, "aggregate elements");
    if (msgs != sim_stats.messages_sent) Fail(case_name, "aggregate messages");
    if (bytes != sim_stats.bytes_sent) Fail(case_name, "aggregate bytes");
    if (rounds != sim_stats.rounds) Fail(case_name, "aggregate rounds");
    if (redist_e != ml.redistribution_elements()) {
      Fail(case_name, "redistribution elements");
    }
    if (redist_m != ml.redistribution_messages()) {
      Fail(case_name, "redistribution messages");
    }
    if (obs != nullptr) {
      auto& m = obs->metrics();
      m.Counter("comm.allreduce.psr_ml.rounds") += rounds;
      m.Counter("sim.comm.allreduce.psr_ml.elements") +=
          sim_stats.elements_sent;
      m.Counter("sim.comm.allreduce.psr_ml.messages") +=
          sim_stats.messages_sent;
      m.Counter("sim.comm.allreduce.psr_ml.bytes") += sim_stats.bytes_sent;
      m.Counter("sim.comm.allreduce.psr_ml.rounds") += sim_stats.rounds;
      m.Counter("sim.comm.rack.bcast.elements") +=
          ml.redistribution_elements();
      m.Counter("sim.comm.rack.bcast.messages") +=
          ml.redistribution_messages();
    }
  } else {
    const std::size_t tup[7] = {st.elements_sent,   st.messages_sent,
                                st.bytes_sent,      st.rack_rounds,
                                st.root_rounds,     st.redist_elements,
                                st.redist_messages};
    t.Post(0, stats_tag, std::as_bytes(std::span<const std::size_t>(tup)));
  }
  if (obs != nullptr) {
    auto& m = obs->metrics();
    m.Counter("comm.allreduce.psr_ml.invocations") += 1;
    m.Counter("comm.allreduce.psr_ml.elements") += st.elements_sent;
    m.Counter("comm.allreduce.psr_ml.messages") += st.messages_sent;
    m.Counter("comm.allreduce.psr_ml.bytes") += st.bytes_sent;
    m.Counter("comm.rack.bcast.elements") += st.redist_elements;
    m.Counter("comm.rack.bcast.messages") += st.redist_messages;
  }
}

int RunWorker(const TcpOptions& opt, std::uint64_t dim,
              const std::string& trace_out, const std::string& metrics_out) {
  TcpTransport t(opt);
  SimSide pricing_side(opt.world);
  // Tracing is always on here: the conformance run doubles as the
  // acceptance fixture for the wire observability plane, and the overhead
  // is irrelevant at this scale.
  psra::obs::WireObs obs(opt.rank);
  t.AttachObs(&obs);
  WireCollectives wc(t, pricing_side.group.pricing(), &obs);
  std::uint32_t cases = 0;
  for (const Case& c : kFlatCases) {
    RunFlatCase(t, wc, c, opt.world, dim, kStatsBase + cases, &obs);
    if (opt.rank == 0) {
      std::fprintf(stderr, "psra_conformance: %-18s ok\n", c.name);
    }
    ++cases;
  }
  if (opt.world >= 4 && opt.world % 2 == 0) {
    RunHierarchicalCase(t, wc, /*sparse=*/false, opt.world, dim,
                        kStatsBase + cases, "hier_psr_dense", &obs);
    if (opt.rank == 0) {
      std::fprintf(stderr, "psra_conformance: %-18s ok\n", "hier_psr_dense");
    }
    ++cases;
    RunHierarchicalCase(t, wc, /*sparse=*/true, opt.world, dim,
                        kStatsBase + cases, "hier_psr_sparse", &obs);
    if (opt.rank == 0) {
      std::fprintf(stderr, "psra_conformance: %-18s ok\n", "hier_psr_sparse");
    }
    ++cases;
  }
  if (opt.rank == 0) {
    // Run summary (required by the metrics schema) on rank 0 only so the
    // MergeFrom aggregation keeps single-valued semantics.
    const double makespan = obs.Now();
    obs.metrics().Counter("engine.iterations") += cases;
    obs.metrics().Gauge("run.makespan_s") = makespan;
    obs.metrics().Gauge("run.cal_time_s") = 0.0;
    obs.metrics().Gauge("run.comm_time_s") = makespan;
    obs.metrics().Gauge("run.iterations") = static_cast<double>(cases);
  }

  // Collection plane: fences, estimates clock offsets, ships every rank's
  // trace + registry to rank 0.
  psra::comm::WireObsBundle bundle;
  const bool root = psra::comm::CollectWireObs(t, obs, &bundle);
  if (root && !trace_out.empty()) {
    const std::string path = psra::ResolveArtifactPath(trace_out);
    std::ofstream os(path);
    if (!os) throw psra::IoError("cannot write " + path);
    psra::obs::WriteMergedWireTrace(bundle.ranks, os);
  }
  if (root && !metrics_out.empty()) {
    const std::string path = psra::ResolveArtifactPath(metrics_out);
    std::ofstream os(path);
    if (!os) throw psra::IoError("cannot write " + path);
    bundle.metrics.WriteJson(os);
  }
  if (opt.rank == 0) {
    std::printf("psra_conformance: OK (%u ranks, %u cases, dim %llu)\n",
                opt.world, cases,
                static_cast<unsigned long long>(dim));
  }
  return 0;
}

int Run(int argc, char** argv) {
  psra::CliParser cli("psra_conformance",
                      "Multi-process TCP conformance vs the simulator");
  std::int64_t ranks = 4;
  std::int64_t dim = 103;
  std::string trace_out;
  std::string metrics_out;
  cli.AddInt("ranks", &ranks, "world size when self-forking (ignored in "
                              "env-worker mode)");
  cli.AddInt("dim", &dim, "vector dimension for every collective");
  cli.AddString("trace-out", &trace_out,
                "merged Chrome trace path written by rank 0 (relative paths "
                "land under $PSRA_TRACE_DIR; empty = no artifact)");
  cli.AddString("metrics-out", &metrics_out,
                "aggregated metrics JSON path written by rank 0 (same path "
                "rules; empty = no artifact)");
  if (!cli.Parse(argc, argv)) return 0;
  if (dim < 1) {
    std::fprintf(stderr, "psra_conformance: --dim must be >= 1\n");
    return 2;
  }

  if (std::getenv("PSRA_RANK") != nullptr) {
    // Worker under tools/psra_launch.
    return RunWorker(TcpOptions::FromEnv(), static_cast<std::uint64_t>(dim),
                     trace_out, metrics_out);
  }
  if (ranks < 1 || ranks > 64) {
    std::fprintf(stderr, "psra_conformance: --ranks must be in [1, 64]\n");
    return 2;
  }
  const auto result = psra::transport::ForkRanks(
      static_cast<std::uint32_t>(ranks), [&](const TcpOptions& opt) {
        RunWorker(opt, static_cast<std::uint64_t>(dim), trace_out,
                  metrics_out);
      });
  if (!result.AllZero()) {
    std::fprintf(stderr, "psra_conformance: FAILED exit codes:");
    for (int c : result.exit_codes) std::fprintf(stderr, " %d", c);
    std::fprintf(stderr, "\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psra_conformance: %s\n", e.what());
    return 1;
  }
}
