#include "admm/checkpoint.hpp"

#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "obs/report.hpp"
#include "support/log.hpp"
#include "support/status.hpp"
#include "support/string_util.hpp"

namespace psra::admm {

namespace {
constexpr const char* kMagic = "psra-model v1";
}

void WriteModel(const ModelCheckpoint& model, std::ostream& os) {
  PSRA_REQUIRE(!model.z.empty(), "cannot write an empty model");
  os << kMagic << '\n';
  os << "algorithm " << model.algorithm << '\n';
  os << "dim " << model.z.size() << '\n';
  os << "lambda " << FormatDouble(model.lambda, 17) << '\n';
  os << "rho " << FormatDouble(model.rho, 17) << '\n';

  std::size_t nnz = 0;
  for (double v : model.z) {
    if (v != 0.0) ++nnz;
  }
  os << "nnz " << nnz << '\n';
  for (std::size_t i = 0; i < model.z.size(); ++i) {
    if (model.z[i] != 0.0) {
      os << i << ' ' << FormatDouble(model.z[i], 17) << '\n';
    }
  }
}

void WriteModelFile(const ModelCheckpoint& model, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw IoError("cannot open model file for writing: " + path);
  WriteModel(model, out);
  PSRA_CHECK(static_cast<bool>(out), "model write failed: " + path);
  PSRA_SLOG(kInfo, "ckpt") << "wrote model checkpoint (" << model.z.size()
                           << " dims) to " << path;
}

ModelCheckpoint ReadModel(std::istream& is) {
  std::string line;
  PSRA_REQUIRE(std::getline(is, line) && Trim(line) == kMagic,
               "not a psra model file (bad magic)");

  ModelCheckpoint model;
  std::size_t dim = 0, nnz = 0;
  bool have_dim = false, have_nnz = false;
  while (std::getline(is, line)) {
    const auto tokens = SplitWhitespace(line);
    if (tokens.empty()) continue;
    if (tokens[0] == "algorithm") {
      PSRA_REQUIRE(tokens.size() == 2, "malformed algorithm line");
      model.algorithm = tokens[1];
    } else if (tokens[0] == "dim") {
      PSRA_REQUIRE(tokens.size() == 2, "malformed dim line");
      dim = static_cast<std::size_t>(ParseInt(tokens[1]));
      have_dim = true;
    } else if (tokens[0] == "lambda") {
      PSRA_REQUIRE(tokens.size() == 2, "malformed lambda line");
      model.lambda = ParseDouble(tokens[1]);
    } else if (tokens[0] == "rho") {
      PSRA_REQUIRE(tokens.size() == 2, "malformed rho line");
      model.rho = ParseDouble(tokens[1]);
    } else if (tokens[0] == "nnz") {
      PSRA_REQUIRE(tokens.size() == 2, "malformed nnz line");
      nnz = static_cast<std::size_t>(ParseInt(tokens[1]));
      have_nnz = true;
      break;  // entries follow
    } else {
      throw InvalidArgument("unknown model header field: " + tokens[0]);
    }
  }
  PSRA_REQUIRE(have_dim && have_nnz, "model header missing dim/nnz");
  PSRA_REQUIRE(dim > 0, "model dimension must be positive");

  model.z.assign(dim, 0.0);
  for (std::size_t k = 0; k < nnz; ++k) {
    PSRA_REQUIRE(static_cast<bool>(std::getline(is, line)),
                 "model file truncated: expected " + std::to_string(nnz) +
                     " entries");
    const auto tokens = SplitWhitespace(line);
    PSRA_REQUIRE(tokens.size() == 2, "malformed model entry");
    const auto idx = static_cast<std::size_t>(ParseInt(tokens[0]));
    PSRA_REQUIRE(idx < dim, "model entry index out of range");
    model.z[idx] = ParseDouble(tokens[1]);
  }
  return model;
}

ModelCheckpoint ReadModelFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open model file: " + path);
  auto model = ReadModel(in);
  PSRA_SLOG(kInfo, "ckpt") << "restored model checkpoint ("
                           << model.z.size() << " dims) from " << path;
  return model;
}

ModelCheckpoint FromRunResult(const RunResult& result, double lambda,
                              double rho) {
  ModelCheckpoint model;
  model.algorithm = result.algorithm;
  model.lambda = lambda;
  model.rho = rho;
  model.z = result.final_z;
  return model;
}

namespace {
constexpr const char* kRunMagic = "psra-run-ckpt v1";

void WriteVectorLine(std::ostream& os, const char* tag,
                     const linalg::DenseVector& v) {
  os << tag;
  for (double x : v) os << ' ' << FormatDouble(x, 17);
  os << '\n';
}

void ReadVectorLine(std::istream& is, const char* tag, std::size_t dim,
                    linalg::DenseVector& out) {
  std::string line;
  PSRA_REQUIRE(static_cast<bool>(std::getline(is, line)),
               "run checkpoint truncated");
  const auto tokens = SplitWhitespace(line);
  PSRA_REQUIRE(tokens.size() == dim + 1 && tokens[0] == tag,
               "malformed run-checkpoint vector line");
  out.resize(dim);
  for (std::size_t i = 0; i < dim; ++i) out[i] = ParseDouble(tokens[i + 1]);
}
}  // namespace

void CaptureRunCheckpoint(const WorkerSet& ws, std::uint64_t iteration,
                          std::span<const simnet::Rank> ranks,
                          RunCheckpoint& ckpt,
                          const obs::MetricsRegistry* metrics) {
  ckpt.workers.resize(static_cast<std::size_t>(ws.size()));
  ckpt.iteration = iteration;
  ckpt.rho = ws.rho();
  for (const simnet::Rank r : ranks) {
    const auto i = static_cast<std::size_t>(r);
    PSRA_REQUIRE(i < ckpt.workers.size(), "rank out of range");
    WorkerCheckpoint& wc = ckpt.workers[i];
    ws.CopyState(i, wc.x, wc.y, wc.z);
  }
  if (metrics != nullptr) ckpt.metrics = *metrics;
}

std::uint64_t ApplyWarmStart(WorkerSet& ws, const RunOptions& options) {
  if (options.warm_start == nullptr) return 0;
  const RunCheckpoint& ckpt = *options.warm_start;
  ws.RestoreAll(ckpt.workers);
  ws.SetRho(ckpt.rho);
  return ckpt.iteration;
}

void WriteRunCheckpoint(const RunCheckpoint& ckpt, std::ostream& os) {
  PSRA_REQUIRE(!ckpt.workers.empty(), "cannot write an empty run checkpoint");
  const std::size_t dim = ckpt.workers.front().x.size();
  os << kRunMagic << '\n';
  os << "iteration " << ckpt.iteration << '\n';
  os << "rho " << FormatDouble(ckpt.rho, 17) << '\n';
  os << "workers " << ckpt.workers.size() << '\n';
  os << "dim " << dim << '\n';
  for (const auto& w : ckpt.workers) {
    PSRA_REQUIRE(w.x.size() == dim && w.y.size() == dim && w.z.size() == dim,
                 "run checkpoint worker dimension mismatch");
    WriteVectorLine(os, "x", w.x);
    WriteVectorLine(os, "y", w.y);
    WriteVectorLine(os, "z", w.z);
  }
  if (!ckpt.metrics.empty()) {
    // Length-prefixed raw JSON trailer: WriteJson is deterministic and
    // round-trips exactly through MetricsFromJson, so resuming from the
    // checkpoint restores the registry byte-for-byte.
    std::ostringstream json;
    ckpt.metrics.WriteJson(json);
    const std::string text = json.str();
    os << "metrics " << text.size() << '\n' << text;
  }
}

void WriteRunCheckpointFile(const RunCheckpoint& ckpt,
                            const std::string& path) {
  std::ofstream out(path);
  if (!out) throw IoError("cannot open run checkpoint for writing: " + path);
  WriteRunCheckpoint(ckpt, out);
  PSRA_CHECK(static_cast<bool>(out), "run checkpoint write failed: " + path);
}

RunCheckpoint ReadRunCheckpoint(std::istream& is) {
  std::string line;
  PSRA_REQUIRE(std::getline(is, line) && Trim(line) == kRunMagic,
               "not a psra run checkpoint (bad magic)");
  RunCheckpoint ckpt;
  std::size_t workers = 0, dim = 0;
  for (const char* key : {"iteration", "rho", "workers", "dim"}) {
    PSRA_REQUIRE(static_cast<bool>(std::getline(is, line)),
                 "run checkpoint header truncated");
    const auto tokens = SplitWhitespace(line);
    PSRA_REQUIRE(tokens.size() == 2 && tokens[0] == key,
                 "malformed run-checkpoint header line");
    if (tokens[0] == std::string("iteration")) {
      ckpt.iteration = static_cast<std::uint64_t>(ParseInt(tokens[1]));
    } else if (tokens[0] == std::string("rho")) {
      ckpt.rho = ParseDouble(tokens[1]);
    } else if (tokens[0] == std::string("workers")) {
      workers = static_cast<std::size_t>(ParseInt(tokens[1]));
    } else {
      dim = static_cast<std::size_t>(ParseInt(tokens[1]));
    }
  }
  PSRA_REQUIRE(workers > 0 && dim > 0,
               "run checkpoint must have workers and dim");
  ckpt.workers.resize(workers);
  for (auto& w : ckpt.workers) {
    ReadVectorLine(is, "x", dim, w.x);
    ReadVectorLine(is, "y", dim, w.y);
    ReadVectorLine(is, "z", dim, w.z);
  }
  // Optional metrics trailer; absent in pre-trailer files.
  std::string trailer;
  while (std::getline(is, trailer)) {
    const auto tokens = SplitWhitespace(trailer);
    if (tokens.empty()) continue;
    PSRA_REQUIRE(tokens.size() == 2 && tokens[0] == "metrics",
                 "unexpected content after run-checkpoint workers");
    const auto nbytes = static_cast<std::size_t>(ParseInt(tokens[1]));
    std::string text(nbytes, '\0');
    is.read(text.data(), static_cast<std::streamsize>(nbytes));
    PSRA_REQUIRE(static_cast<std::size_t>(is.gcount()) == nbytes,
                 "run checkpoint metrics trailer truncated");
    ckpt.metrics = obs::MetricsFromJson(text);
    break;
  }
  return ckpt;
}

RunCheckpoint ReadRunCheckpointFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open run checkpoint: " + path);
  return ReadRunCheckpoint(in);
}

}  // namespace psra::admm
