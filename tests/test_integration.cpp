// Cross-module integration scenarios: full user workflows exercised end to
// end through the public API, plus randomized invariants that span several
// subsystems at once.
#include <gtest/gtest.h>

#include <cstdio>
#include <unistd.h>
#include <fstream>
#include <sstream>

#include "psra/psra.hpp"
#include "support/string_util.hpp"

namespace psra {
namespace {

/// Temp-file helper that cleans up after itself.
class TempFile {
 public:
  explicit TempFile(const std::string& suffix)
      : path_("/tmp/psra_itest_" + std::to_string(::getpid()) + suffix) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------------- workflows ----

TEST(Workflow, LibsvmToTrainedCheckpointAndBack) {
  // 1. Generate data and persist it in LIBSVM format (as a user would have
  //    a file on disk).
  data::SyntheticSpec spec;
  spec.num_features = 300;
  spec.num_train = 400;
  spec.num_test = 0;
  spec.mean_row_nnz = 12.0;
  spec.seed = 77;
  const auto gen = data::GenerateSynthetic(spec);
  TempFile svm(".svm");
  data::WriteLibsvmFile(gen.train, svm.path());

  // 2. Load it back, split, partition, train.
  data::LibsvmReadOptions ropt;
  ropt.feature_dim = spec.num_features;
  const auto loaded = data::ReadLibsvmFile(svm.path(), ropt);
  ASSERT_EQ(loaded.num_samples(), 400u);
  auto [train, test] = loaded.Split(320);

  admm::ClusterConfig cluster;
  cluster.num_nodes = 2;
  cluster.workers_per_node = 2;
  const auto problem = admm::BuildProblemFromData(
      "itest", std::move(train), std::move(test), cluster.world_size());

  admm::RunOptions opt;
  opt.max_iterations = 15;
  const auto res = admm::RunAlgorithm("psra-hgadmm", cluster, problem, opt);
  EXPECT_GT(res.final_accuracy, 0.6);

  // 3. Checkpoint the model, reload, and verify identical scoring.
  TempFile model(".model");
  admm::WriteModelFile(admm::FromRunResult(res, problem.lambda, problem.rho),
                       model.path());
  const auto restored = admm::ReadModelFile(model.path());
  EXPECT_DOUBLE_EQ(solver::Accuracy(problem.test, restored.z),
                   res.final_accuracy);
}

TEST(Workflow, ConfigFileDrivesACompleteRun) {
  // An experiment described by its settings, as a harness would pass them:
  // cluster shape, iterations, algorithm name and lambda.
  admm::ClusterConfig cluster;
  cluster.num_nodes = 2;
  cluster.workers_per_node = 2;

  data::SyntheticSpec spec;
  spec.num_features = 120;
  spec.num_train = 200;
  spec.num_test = 80;
  spec.mean_row_nnz = 10.0;
  const auto problem =
      admm::BuildProblem(spec, cluster.world_size(), /*lambda=*/0.5);
  admm::RunOptions opt;
  opt.max_iterations = 8;
  const auto res = admm::RunAlgorithm("admmlib", cluster, problem, opt);
  EXPECT_EQ(res.trace.size(), 8u);
  EXPECT_EQ(res.algorithm, "ADMMLib");
}

TEST(Workflow, TraceCsvRoundTripsThroughLibsvmStyleParsing) {
  data::SyntheticSpec spec;
  spec.num_features = 100;
  spec.num_train = 150;
  spec.num_test = 50;
  spec.mean_row_nnz = 8.0;
  admm::ClusterConfig cluster;
  cluster.num_nodes = 2;
  cluster.workers_per_node = 1;
  const auto problem = admm::BuildProblem(spec, cluster.world_size());
  admm::RunOptions opt;
  opt.max_iterations = 5;
  const auto res = admm::RunAlgorithm("psra-admm", cluster, problem, opt);

  std::ostringstream os;
  res.WriteTraceCsv(os);
  std::istringstream is(os.str());
  std::string header;
  ASSERT_TRUE(std::getline(is, header));
  std::size_t rows = 0;
  std::string line;
  while (std::getline(is, line)) {
    const auto cells = Split(line, ',');
    ASSERT_EQ(cells.size(), Split(header, ',').size());
    // iteration column parses as an integer, objective as double.
    EXPECT_GT(ParseInt(cells[1]), 0);
    EXPECT_GT(ParseDouble(cells[2]), 0.0);
    ++rows;
  }
  EXPECT_EQ(rows, 5u);
}

// ------------------------------------------------ cross-module invariants ----

/// All synchronous algorithms must agree that more L1 regularization means
/// sparser consensus models.
TEST(Invariant, StrongerL1YieldsSparserModels) {
  data::SyntheticSpec spec;
  spec.num_features = 200;
  spec.num_train = 300;
  spec.num_test = 50;
  spec.mean_row_nnz = 10.0;
  admm::ClusterConfig cluster;
  cluster.num_nodes = 2;
  cluster.workers_per_node = 2;
  admm::RunOptions opt;
  opt.max_iterations = 20;

  std::size_t prev_nnz = SIZE_MAX;
  for (const double lambda : {0.1, 1.0, 5.0}) {
    const auto problem =
        admm::BuildProblem(spec, cluster.world_size(), lambda);
    const auto res = admm::RunAlgorithm("psra-hgadmm", cluster, problem, opt);
    const std::size_t nnz = linalg::CountNonzeros(res.final_z, 1e-12);
    EXPECT_LE(nnz, prev_nnz) << "lambda " << lambda;
    prev_nnz = nnz;
  }
}

/// Virtual-time sanity across every algorithm: time ledgers only grow, the
/// makespan dominates both mean times, and traces are monotone in
/// iteration number.
class LedgerSanity : public ::testing::TestWithParam<const char*> {};

TEST_P(LedgerSanity, TimesAreCoherent) {
  data::SyntheticSpec spec;
  spec.num_features = 100;
  spec.num_train = 160;
  spec.num_test = 40;
  spec.mean_row_nnz = 8.0;
  admm::ClusterConfig cluster;
  cluster.num_nodes = 2;
  cluster.workers_per_node = 2;
  const auto problem = admm::BuildProblem(spec, cluster.world_size());
  admm::RunOptions opt;
  opt.max_iterations = 6;
  const auto res = admm::RunAlgorithm(GetParam(), cluster, problem, opt);

  EXPECT_GT(res.total_cal_time, 0.0);
  EXPECT_GE(res.total_comm_time, 0.0);
  EXPECT_GE(res.makespan, res.total_cal_time);
  simnet::VirtualTime prev_cal = 0.0, prev_comm = 0.0;
  std::uint64_t prev_iter = 0;
  for (const auto& rec : res.trace) {
    EXPECT_GT(rec.iteration, prev_iter);
    EXPECT_GE(rec.cal_time, prev_cal);
    EXPECT_GE(rec.comm_time, prev_comm - 1e-15);
    prev_iter = rec.iteration;
    prev_cal = rec.cal_time;
    prev_comm = rec.comm_time;
  }
}

INSTANTIATE_TEST_SUITE_P(Algorithms, LedgerSanity,
                         ::testing::Values("psra-hgadmm", "psra-admm",
                                           "hgadmm-nogroup", "admmlib",
                                           "ad-admm", "gadmm"));

/// Stragglers can only increase virtual times, never change the math:
/// the same seed with/without stragglers yields the same model for BSP
/// algorithms (stragglers affect the clock, not the values).
TEST(Invariant, StragglersSlowButDontChangeBspResults) {
  data::SyntheticSpec spec;
  spec.num_features = 100;
  spec.num_train = 160;
  spec.num_test = 40;
  spec.mean_row_nnz = 8.0;

  admm::ClusterConfig fast;
  fast.num_nodes = 4;
  fast.workers_per_node = 1;
  auto slow = fast;
  slow.straggler.node_probability = 0.4;
  slow.straggler.slow_factor_min = 4.0;
  slow.straggler.slow_factor_max = 8.0;

  const auto problem = admm::BuildProblem(spec, fast.world_size());
  admm::RunOptions opt;
  opt.max_iterations = 8;

  // Full barrier: group membership is fixed, so straggling cannot change
  // the computed model — only the clock.
  admm::PsraConfig a;
  a.cluster = fast;
  a.grouping = admm::GroupingMode::kHierarchical;
  admm::PsraConfig b = a;
  b.cluster = slow;

  const auto ra = admm::PsraHgAdmm(a).Run(problem, opt);
  const auto rb = admm::PsraHgAdmm(b).Run(problem, opt);
  EXPECT_DOUBLE_EQ(ra.final_objective, rb.final_objective);
  EXPECT_GT(rb.SystemTime(), ra.SystemTime());
}

}  // namespace
}  // namespace psra
