// Tests for the matrix-multiply application.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/matrix_multiply.hpp"
#include "common/rng.hpp"
#include "core/job.hpp"
#include "ingest/record_format.hpp"
#include "ingest/source.hpp"
#include "storage/mem_device.hpp"

namespace supmr::apps {
namespace {

std::vector<double> random_matrix(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<double> m(n * n);
  for (auto& x : m) x = rng.uniform_double() * 2.0 - 1.0;
  return m;
}

std::vector<double> naive_matmul(const std::vector<double>& a,
                                 const std::vector<double>& b,
                                 std::size_t n) {
  std::vector<double> c(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < n; ++k)
      for (std::size_t j = 0; j < n; ++j)
        c[i * n + j] += a[i * n + k] * b[k * n + j];
  return c;
}

core::JobConfig small_config() {
  core::JobConfig cfg;
  cfg.num_map_threads = 4;
  cfg.num_reduce_threads = 2;
  return cfg;
}

void expect_matches_reference(const MatrixMultiplyApp& app,
                              const std::vector<double>& ref,
                              std::size_t n) {
  ASSERT_EQ(app.columns(), n);
  for (std::size_t j = 0; j < n; ++j) {
    const double* col = app.column(j);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(col[i], ref[i * n + j], 1e-9)
          << "C[" << i << "," << j << "]";
    }
  }
}

TEST(MatrixMultiply, MatchesNaiveReference) {
  constexpr std::size_t n = 24;
  const auto a = random_matrix(n, 1);
  const auto b = random_matrix(n, 2);
  const auto ref = naive_matmul(a, b, n);

  MatrixMultiplyApp app(a, n);
  auto dev = std::make_shared<storage::MemDevice>(
      MatrixMultiplyApp::columns_to_records(b, n), "B");
  ingest::SingleDeviceSource src(
      dev, std::make_shared<ingest::FixedFormat>(n * sizeof(double)), 0);
  core::MapReduceJob job(app, src, small_config());
  ASSERT_TRUE(job.run(core::ExecMode::kOriginal).ok());
  expect_matches_reference(app, ref, n);
}

TEST(MatrixMultiply, ReusedAppMultipliesTheSecondJobAlone) {
  constexpr std::size_t n = 16;
  const auto a = random_matrix(n, 5);
  const auto b = random_matrix(n, 6);
  const auto ref = naive_matmul(a, b, n);
  MatrixMultiplyApp app(a, n);
  auto dev = std::make_shared<storage::MemDevice>(
      MatrixMultiplyApp::columns_to_records(b, n), "B");
  ingest::SingleDeviceSource src(
      dev, std::make_shared<ingest::FixedFormat>(n * sizeof(double)), 0);
  for (int job_index = 0; job_index < 2; ++job_index) {
    core::MapReduceJob job(app, src, small_config());
    ASSERT_TRUE(job.run(core::ExecMode::kOriginal).ok());
    expect_matches_reference(app, ref, n);
  }
}

TEST(MatrixMultiply, ChunkedEqualsUnchunked) {
  constexpr std::size_t n = 32;
  const auto a = random_matrix(n, 3);
  const auto b = random_matrix(n, 4);
  const auto ref = naive_matmul(a, b, n);
  const std::string records = MatrixMultiplyApp::columns_to_records(b, n);

  MatrixMultiplyApp app(a, n);
  // Chunk = 5 columns per round (record-aligned via FixedFormat).
  ingest::SingleDeviceSource src(
      std::make_shared<storage::MemDevice>(records, "B"),
      std::make_shared<ingest::FixedFormat>(n * sizeof(double)),
      5 * n * sizeof(double));
  core::MapReduceJob job(app, src, small_config());
  auto result = job.run(core::ExecMode::kIngestMR);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->chunks, 4u);
  expect_matches_reference(app, ref, n);
}

TEST(MatrixMultiply, IdentityPreservesB) {
  constexpr std::size_t n = 8;
  std::vector<double> identity(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) identity[i * n + i] = 1.0;
  const auto b = random_matrix(n, 5);
  MatrixMultiplyApp app(identity, n);
  ingest::SingleDeviceSource src(
      std::make_shared<storage::MemDevice>(
          MatrixMultiplyApp::columns_to_records(b, n), "B"),
      std::make_shared<ingest::FixedFormat>(n * sizeof(double)), 0);
  core::MapReduceJob job(app, src, small_config());
  ASSERT_TRUE(job.run(core::ExecMode::kOriginal).ok());
  expect_matches_reference(app, b, n);
}

TEST(MatrixMultiply, FrobeniusNormComputed) {
  constexpr std::size_t n = 8;
  std::vector<double> two(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) two[i * n + i] = 2.0;
  std::vector<double> ones(n * n, 1.0);
  MatrixMultiplyApp app(two, n);
  ingest::SingleDeviceSource src(
      std::make_shared<storage::MemDevice>(
          MatrixMultiplyApp::columns_to_records(ones, n), "B"),
      std::make_shared<ingest::FixedFormat>(n * sizeof(double)), 0);
  core::MapReduceJob job(app, src, small_config());
  ASSERT_TRUE(job.run(core::ExecMode::kOriginal).ok());
  // C = 2*ones: frobenius = sqrt(n*n*4).
  EXPECT_NEAR(app.frobenius_norm(), std::sqrt(double(n * n) * 4.0), 1e-9);
}

TEST(MatrixMultiply, RejectsTornColumns) {
  constexpr std::size_t n = 4;
  MatrixMultiplyApp app(random_matrix(n, 6), n);
  // 3.5 columns worth of bytes.
  ingest::SingleDeviceSource src(
      std::make_shared<storage::MemDevice>(std::string(n * 8 * 3 + 16, 'x'),
                                           "bad"),
      std::make_shared<ingest::FixedFormat>(1), 0);
  core::MapReduceJob job(app, src, small_config());
  EXPECT_FALSE(job.run(core::ExecMode::kOriginal).ok());
}

}  // namespace
}  // namespace supmr::apps
