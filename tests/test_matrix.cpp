#include "nn/matrix.h"

#include <gtest/gtest.h>

namespace xt::nn {
namespace {

Matrix make(std::size_t rows, std::size_t cols, std::initializer_list<float> vals) {
  Matrix m(rows, cols);
  std::copy(vals.begin(), vals.end(), m.data().begin());
  return m;
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_FLOAT_EQ(m.at(1, 2), 1.5f);
  m.at(0, 1) = 9.0f;
  EXPECT_FLOAT_EQ(m.at(0, 1), 9.0f);
}

TEST(Matrix, FromRowAndRows) {
  const Matrix row = Matrix::from_row({1, 2, 3});
  EXPECT_EQ(row.rows(), 1u);
  EXPECT_EQ(row.cols(), 3u);

  const Matrix m = Matrix::from_rows({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_FLOAT_EQ(m.at(2, 1), 6.0f);
  EXPECT_EQ(m.row(1), (std::vector<float>{3, 4}));
}

TEST(Matrix, MatmulKnownValues) {
  const Matrix a = make(2, 3, {1, 2, 3, 4, 5, 6});
  const Matrix b = make(3, 2, {7, 8, 9, 10, 11, 12});
  const Matrix c = matmul(a, b);
  ASSERT_EQ(c.rows(), 2u);
  ASSERT_EQ(c.cols(), 2u);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(Matrix, MatmulAtEqualsExplicitTranspose) {
  Rng rng(3);
  const Matrix a = Matrix::he_normal(5, 4, rng);
  const Matrix b = Matrix::he_normal(5, 3, rng);
  const Matrix c = matmul_at(a, b);  // a^T b: 4 x 3
  ASSERT_EQ(c.rows(), 4u);
  ASSERT_EQ(c.cols(), 3u);
  Matrix expect(4, 3);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      for (std::size_t k = 0; k < 5; ++k) expect.at(i, j) += a.at(k, i) * b.at(k, j);
    }
  }
  EXPECT_TRUE(allclose(c, expect, 1e-5f));
}

TEST(Matrix, MatmulBtEqualsExplicitTranspose) {
  Rng rng(5);
  const Matrix a = Matrix::he_normal(4, 6, rng);
  const Matrix b = Matrix::he_normal(3, 6, rng);
  const Matrix c = matmul_bt(a, b);  // a b^T: 4 x 3
  ASSERT_EQ(c.rows(), 4u);
  ASSERT_EQ(c.cols(), 3u);
  Matrix expect(4, 3);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      for (std::size_t k = 0; k < 6; ++k) expect.at(i, j) += a.at(i, k) * b.at(j, k);
    }
  }
  EXPECT_TRUE(allclose(c, expect, 1e-5f));
}

TEST(Matrix, ColSums) {
  const Matrix x = make(3, 2, {1, 2, 3, 4, 5, 6});
  const Matrix sums = col_sums(x);
  EXPECT_FLOAT_EQ(sums.at(0, 0), 9.0f);
  EXPECT_FLOAT_EQ(sums.at(0, 1), 12.0f);
}

TEST(Matrix, AddAndScaleInplace) {
  Matrix a = make(1, 3, {1, 2, 3});
  const Matrix b = make(1, 3, {10, 10, 10});
  a.add_inplace(b);
  a.scale_inplace(2.0f);
  EXPECT_FLOAT_EQ(a.at(0, 0), 22.0f);
  EXPECT_FLOAT_EQ(a.at(0, 2), 26.0f);
}

TEST(Matrix, HeNormalHasReasonableScale) {
  Rng rng(17);
  const Matrix m = Matrix::he_normal(1'000, 100, rng);
  double sum = 0.0, sq = 0.0;
  for (float v : m.data()) {
    sum += v;
    sq += static_cast<double>(v) * v;
  }
  const double n = static_cast<double>(m.size());
  EXPECT_NEAR(sum / n, 0.0, 0.001);
  EXPECT_NEAR(sq / n, 2.0 / 1'000.0, 2e-4);  // variance = 2 / fan_in
}

TEST(Matrix, FillResetsAll) {
  Matrix m(3, 3, 5.0f);
  m.fill(0.0f);
  for (float v : m.data()) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(Matrix, IdentityMultiplication) {
  Matrix eye(3, 3);
  for (std::size_t i = 0; i < 3; ++i) eye.at(i, i) = 1.0f;
  Rng rng(1);
  const Matrix x = Matrix::he_normal(3, 3, rng);
  const Matrix y = matmul(x, eye);
  EXPECT_TRUE(allclose(y, x, 1e-6f));
}

}  // namespace
}  // namespace xt::nn
