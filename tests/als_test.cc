// ALS tests: the Cholesky solver, convergence on synthetic low-rank data,
// and prediction quality invariants.
#include <gtest/gtest.h>

#include <cmath>

#include "src/algos/als.h"
#include "src/algos/linalg.h"
#include "src/gen/bipartite.h"

namespace egraph {
namespace {

TEST(Cholesky, SolvesKnownSystem) {
  // A = [[4,2],[2,3]], b = [10, 9] -> x = [1.5, 2].
  std::vector<double> a{4, 2, 2, 3};
  std::vector<double> b{10, 9};
  ASSERT_TRUE(CholeskySolveInPlace(a.data(), b.data(), 2));
  EXPECT_NEAR(b[0], 1.5, 1e-9);
  EXPECT_NEAR(b[1], 2.0, 1e-9);
}

TEST(Cholesky, IdentitySolvesToRhs) {
  std::vector<double> a{1, 0, 0, 0, 1, 0, 0, 0, 1};
  std::vector<double> b{3, -1, 2};
  ASSERT_TRUE(CholeskySolveInPlace(a.data(), b.data(), 3));
  EXPECT_NEAR(b[0], 3.0, 1e-12);
  EXPECT_NEAR(b[1], -1.0, 1e-12);
  EXPECT_NEAR(b[2], 2.0, 1e-12);
}

TEST(Cholesky, RejectsNonPositiveDefinite) {
  std::vector<double> a{1, 2, 2, 1};  // eigenvalues 3, -1
  std::vector<double> b{1, 1};
  EXPECT_FALSE(CholeskySolveInPlace(a.data(), b.data(), 2));
}

TEST(Cholesky, RandomSpdRoundTrip) {
  // Build SPD as M^T M + I, pick x, compute b = A x, solve, compare.
  const int k = 8;
  std::vector<double> m(k * k);
  uint64_t seed = 12345;
  for (auto& v : m) {
    seed = seed * 6364136223846793005ULL + 1;
    v = static_cast<double>(seed >> 40) / (1 << 24) - 0.5;
  }
  std::vector<double> a(k * k, 0.0);
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < k; ++j) {
      for (int p = 0; p < k; ++p) {
        a[i * k + j] += m[p * k + i] * m[p * k + j];
      }
    }
    a[i * k + i] += 1.0;
  }
  std::vector<double> x_true(k);
  for (int i = 0; i < k; ++i) {
    x_true[i] = i - 3.5;
  }
  std::vector<double> b(k, 0.0);
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < k; ++j) {
      b[i] += a[i * k + j] * x_true[j];
    }
  }
  ASSERT_TRUE(CholeskySolveInPlace(a.data(), b.data(), k));
  for (int i = 0; i < k; ++i) {
    EXPECT_NEAR(b[i], x_true[i], 1e-8) << i;
  }
}

class AlsTest : public ::testing::Test {
 protected:
  static BipartiteGraph MakeData() {
    BipartiteOptions options;
    options.num_users = 600;
    options.num_items = 80;
    options.avg_ratings_per_user = 25;
    options.latent_rank = 4;
    return GenerateBipartite(options);
  }
};

TEST_F(AlsTest, RmseDecreasesAndConverges) {
  const BipartiteGraph data = MakeData();
  GraphHandle handle(data.edges);
  AlsOptions options;
  options.rank = 8;
  options.iterations = 8;
  const AlsResult result = RunAls(handle, data.num_users, options, RunConfig{});
  ASSERT_EQ(result.rmse_per_iteration.size(), 8u);
  // The synthetic ratings are low-rank + small noise, so ALS hits the noise
  // floor essentially after the first sweep; afterwards the weighted-ridge
  // objective (not raw RMSE) is what decreases, so RMSE may drift by ~1e-3
  // per iteration. Assert fit quality and absence of divergence.
  EXPECT_LT(result.rmse_per_iteration.back(), 0.35);
  EXPECT_LT(result.rmse_per_iteration.back(), result.rmse_per_iteration.front() + 0.02);
  for (const double rmse : result.rmse_per_iteration) {
    ASSERT_TRUE(std::isfinite(rmse));
    EXPECT_LT(rmse, 1.0);  // never worse than predicting the mean
  }
}

TEST_F(AlsTest, FactorsHaveRequestedShape) {
  const BipartiteGraph data = MakeData();
  GraphHandle handle(data.edges);
  AlsOptions options;
  options.rank = 5;
  options.iterations = 2;
  const AlsResult result = RunAls(handle, data.num_users, options, RunConfig{});
  EXPECT_EQ(result.user_factors.size(), static_cast<size_t>(data.num_users) * 5);
  EXPECT_EQ(result.item_factors.size(), static_cast<size_t>(data.num_items) * 5);
  for (const float f : result.user_factors) {
    ASSERT_TRUE(std::isfinite(f));
  }
  for (const float f : result.item_factors) {
    ASSERT_TRUE(std::isfinite(f));
  }
}

TEST_F(AlsTest, DeterministicForSeed) {
  // Enough ratings (395,780) that a pool-shaped reduction would group the
  // RMSE sum differently at 1 and 4 threads.
  BipartiteOptions data_options;
  data_options.num_users = 20000;
  data_options.num_items = 2000;
  data_options.avg_ratings_per_user = 20;
  const BipartiteGraph data = GenerateBipartite(data_options);
  AlsOptions options;
  options.rank = 4;
  options.iterations = 3;
  ExecutionContextOptions one_thread;
  one_thread.num_threads = 1;
  ExecutionContextOptions four_threads;
  four_threads.num_threads = 4;
  ExecutionContext ctx1(one_thread);
  ExecutionContext ctx4(four_threads);
  GraphHandle h1(data.edges);
  GraphHandle h4(data.edges);
  const AlsResult a = RunAls(h1, data.num_users, options, RunConfig{}, ctx1);
  const AlsResult b = RunAls(h4, data.num_users, options, RunConfig{}, ctx4);
  // Factor solves are per vertex and the RMSE sums in fixed blocks, so the
  // run is bit-identical at every pool width.
  EXPECT_EQ(a.rmse_per_iteration, b.rmse_per_iteration);
  EXPECT_EQ(a.user_factors, b.user_factors);
  EXPECT_EQ(a.item_factors, b.item_factors);
}

TEST_F(AlsTest, PredictionsRecoverHeldBehaviour) {
  // Predicted ratings for observed pairs should correlate with actuals:
  // check mean absolute error is far below the rating span.
  const BipartiteGraph data = MakeData();
  GraphHandle handle(data.edges);
  AlsOptions options;
  options.rank = 8;
  options.iterations = 8;
  const AlsResult result = RunAls(handle, data.num_users, options, RunConfig{});
  double abs_error = 0.0;
  const auto& edges = data.edges.edges();
  for (size_t e = 0; e < edges.size(); ++e) {
    const VertexId u = edges[e].src;
    const VertexId i = edges[e].dst - data.num_users;
    double dot = 0.0;
    for (int x = 0; x < options.rank; ++x) {
      dot += static_cast<double>(result.user_factors[u * options.rank + x]) *
             result.item_factors[i * options.rank + x];
    }
    abs_error += std::abs(dot - data.edges.weights()[e]);
  }
  abs_error /= static_cast<double>(edges.size());
  EXPECT_LT(abs_error, 0.3);  // rating span is 4.0
}

}  // namespace
}  // namespace egraph
