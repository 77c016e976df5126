// Tests for the vectorized scoring-kernel library: every kernel against a
// naive scalar reference across dimensions around the unroll width, plus the
// bit-exact agreement contract between the generic and native dispatch
// paths.

#include "util/vecmath.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "models/embedding.h"
#include "util/aligned.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace kgc {
namespace {

// Dimensions probing the reduction unroll: 1, kReduceLanes +/- 1, the lane
// count itself, a multiple, and a non-multiple well past it.
const size_t kDims[] = {1, vec::kReduceLanes - 1, vec::kReduceLanes,
                        vec::kReduceLanes + 1, 32, 100};

std::vector<float> RandomVector(Rng& rng, size_t n, double lo = -2.0,
                                double hi = 2.0) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.UniformDouble(lo, hi));
  return v;
}

// --- Scalar references ------------------------------------------------------

double RefDot(const float* a, const float* b, size_t n) {
  double s = 0.0;
  for (size_t j = 0; j < n; ++j) {
    s += static_cast<double>(a[j]) * static_cast<double>(b[j]);
  }
  return s;
}

double RefSum(const float* a, size_t n) {
  double s = 0.0;
  for (size_t j = 0; j < n; ++j) s += static_cast<double>(a[j]);
  return s;
}

double RefL1(const float* q, const float* row, size_t n) {
  double s = 0.0;
  for (size_t j = 0; j < n; ++j) {
    s += std::abs(static_cast<double>(q[j]) - static_cast<double>(row[j]));
  }
  return s;
}

double RefL2(const float* q, const float* row, size_t n) {
  double s = 0.0;
  for (size_t j = 0; j < n; ++j) {
    const double d = static_cast<double>(q[j]) - static_cast<double>(row[j]);
    s += d * d;
  }
  return std::sqrt(s);
}

float RefClip(float g) { return g > 5.0f ? 5.0f : (g < -5.0f ? -5.0f : g); }

// Every dispatch path this build and CPU can run.
std::vector<const vec::KernelOps*> AllPaths() {
  std::vector<const vec::KernelOps*> paths = {
      &vec::OpsFor(vec::KernelPath::kGeneric)};
  if (vec::NativeKernelsAvailable()) {
    paths.push_back(&vec::OpsFor(vec::KernelPath::kNative));
  }
  return paths;
}

// Bit-pattern equality, signed zeros and NaN payloads included. With
// `open_nans`, two NaNs only have to be NaN: IEEE 754 leaves the sign and
// payload of a NaN result open, and once a kernel can meet two different
// NaNs (inf - inf next to a NaN input) or negate one, which it gets depends
// on how the compiler ordered commutative operands or folded the negation.
void ExpectSameBits(float expected, float actual, const char* what, size_t i,
                    bool open_nans = false) {
  if (open_nans && std::isnan(expected) && std::isnan(actual)) return;
  EXPECT_EQ(std::bit_cast<uint32_t>(expected), std::bit_cast<uint32_t>(actual))
      << what << "[" << i << "]: expected " << expected << ", got " << actual;
}

void ExpectSameBits(std::span<const float> expected,
                    std::span<const float> actual, const char* what,
                    bool open_nans = false) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    ExpectSameBits(expected[i], actual[i], what, i, open_nans);
  }
}

// Gradient values the update kernels must treat exactly as the scalar
// EmbeddingTable::Update does: the clip bounds, infinities, NaN, signed
// zeros and subnormals.
const float kEdgeValues[] = {
    5.0f,
    -5.0f,
    std::numeric_limits<float>::infinity(),
    -std::numeric_limits<float>::infinity(),
    std::numeric_limits<float>::quiet_NaN(),
    -0.0f,
    0.0f,
    std::numeric_limits<float>::denorm_min(),
    -std::numeric_limits<float>::denorm_min(),
    1e-40f,
    -3e-39f,
};

// Random values in [lo, hi) with the edge values planted at the front.
std::vector<float> EdgeVector(Rng& rng, size_t n, double lo, double hi) {
  std::vector<float> v = RandomVector(rng, n, lo, hi);
  for (size_t i = 0; i < n && i < std::size(kEdgeValues); ++i) {
    v[i] = kEdgeValues[i];
  }
  return v;
}

// Runs `fn` with `path` as the active kernel table, then restores the
// table that was active before.
template <typename Fn>
void WithKernelPath(const vec::KernelOps* path, Fn fn) {
  const bool was_native = std::strcmp(vec::Ops().name, "native") == 0;
  vec::SetKernelPathForTest(std::strcmp(path->name, "native") == 0
                                ? vec::KernelPath::kNative
                                : vec::KernelPath::kGeneric);
  fn();
  vec::SetKernelPathForTest(was_native ? vec::KernelPath::kNative
                                       : vec::KernelPath::kGeneric);
}

std::vector<uint8_t> TableBytes(const EmbeddingTable& table) {
  BinaryWriter writer;
  table.Serialize(writer);
  return writer.buffer();
}

// Reductions accumulate in double with a fixed lane order that differs from
// the reference's serial order, so compare with a tolerance scaled to the
// magnitude; element-wise kernels are compared bit-exactly elsewhere.
void ExpectClose(double expected, double actual) {
  EXPECT_NEAR(expected, actual, 1e-9 * (1.0 + std::abs(expected)));
}

void ExpectClose(double expected, float actual) {
  EXPECT_NEAR(expected, static_cast<double>(actual),
              1e-4 * (1.0 + std::abs(expected)));
}

// --- Kernels vs reference ---------------------------------------------------

TEST(VecMathTest, DotAndSumMatchReference) {
  Rng rng(1);
  const auto& ops = vec::Ops();
  for (size_t n : kDims) {
    const auto a = RandomVector(rng, n);
    const auto b = RandomVector(rng, n);
    ExpectClose(RefDot(a.data(), b.data(), n), ops.dot(a.data(), b.data(), n));
    ExpectClose(RefSum(a.data(), n), ops.sum(a.data(), n));
  }
}

TEST(VecMathTest, AxpyAndScaleAreBitExact) {
  Rng rng(2);
  const auto& ops = vec::Ops();
  for (size_t n : kDims) {
    const auto x = RandomVector(rng, n);
    const auto y0 = RandomVector(rng, n);
    const float alpha = 0.37f;
    std::vector<float> y = y0;
    ops.axpy(alpha, x.data(), y.data(), n);
    for (size_t j = 0; j < n; ++j) EXPECT_EQ(y[j], y0[j] + alpha * x[j]);
    std::vector<float> z = y0;
    ops.scale(z.data(), n, 1.5f);
    for (size_t j = 0; j < n; ++j) EXPECT_EQ(z[j], y0[j] * 1.5f);
  }
}

TEST(VecMathTest, RowSweepsMatchReference) {
  Rng rng(3);
  const auto& ops = vec::Ops();
  for (size_t dim : kDims) {
    const size_t num_rows = 7;
    const size_t stride = dim + 3;  // rows wider than dim: stride respected
    const auto q = RandomVector(rng, dim);
    const auto rows = RandomVector(rng, num_rows * stride);
    std::vector<float> out(num_rows);

    ops.dot_rows(q.data(), rows.data(), num_rows, stride, dim, out.data());
    for (size_t i = 0; i < num_rows; ++i) {
      ExpectClose(RefDot(q.data(), rows.data() + i * stride, dim), out[i]);
    }
    ops.l1_rows(q.data(), rows.data(), num_rows, stride, dim, out.data());
    for (size_t i = 0; i < num_rows; ++i) {
      ExpectClose(RefL1(q.data(), rows.data() + i * stride, dim), out[i]);
    }
    ops.l2_rows(q.data(), rows.data(), num_rows, stride, dim, out.data());
    for (size_t i = 0; i < num_rows; ++i) {
      ExpectClose(RefL2(q.data(), rows.data() + i * stride, dim), out[i]);
    }
  }
}

TEST(VecMathTest, RowwiseDotMatchesReference) {
  Rng rng(4);
  const auto& ops = vec::Ops();
  for (size_t dim : kDims) {
    const size_t num_rows = 5;
    const size_t a_stride = dim + 1;
    const size_t b_stride = dim + 2;
    const auto a = RandomVector(rng, num_rows * a_stride);
    const auto b = RandomVector(rng, num_rows * b_stride);
    std::vector<float> out(num_rows);
    ops.rowwise_dot(a.data(), a_stride, b.data(), b_stride, num_rows, dim,
                    out.data());
    for (size_t i = 0; i < num_rows; ++i) {
      ExpectClose(
          RefDot(a.data() + i * a_stride, b.data() + i * b_stride, dim),
          out[i]);
    }
  }
}

TEST(VecMathTest, OffsetRowSweepsMatchReference) {
  Rng rng(5);
  const auto& ops = vec::Ops();
  for (size_t dim : kDims) {
    const size_t num_rows = 6;
    const auto q = RandomVector(rng, dim);
    const auto v = RandomVector(rng, dim);
    const auto coef = RandomVector(rng, num_rows);
    const auto rows = RandomVector(rng, num_rows * dim);
    for (float coef_scale : {1.0f, -1.0f}) {
      std::vector<float> out(num_rows);
      ops.l1_offset_rows(q.data(), v.data(), coef.data(), coef_scale,
                         rows.data(), num_rows, dim, dim, out.data());
      for (size_t i = 0; i < num_rows; ++i) {
        double s = 0.0;
        for (size_t j = 0; j < dim; ++j) {
          s += std::abs(static_cast<double>(q[j]) +
                        static_cast<double>(coef_scale) * coef[i] * v[j] -
                        rows[i * dim + j]);
        }
        ExpectClose(s, out[i]);
      }
      ops.l2_offset_rows(q.data(), v.data(), coef.data(), coef_scale,
                         rows.data(), num_rows, dim, dim, out.data());
      for (size_t i = 0; i < num_rows; ++i) {
        double s = 0.0;
        for (size_t j = 0; j < dim; ++j) {
          const double d = static_cast<double>(q[j]) +
                           static_cast<double>(coef_scale) * coef[i] * v[j] -
                           rows[i * dim + j];
          s += d * d;
        }
        ExpectClose(std::sqrt(s), out[i]);
      }
    }
  }
}

TEST(VecMathTest, CabsRowsMatchesReference) {
  Rng rng(6);
  const auto& ops = vec::Ops();
  for (size_t half : kDims) {
    const size_t num_rows = 4;
    const size_t stride = 2 * half;
    const auto q = RandomVector(rng, stride);
    const auto rows = RandomVector(rng, num_rows * stride);
    std::vector<float> out(num_rows);
    ops.cabs_rows(q.data(), rows.data(), num_rows, stride, half, out.data());
    for (size_t i = 0; i < num_rows; ++i) {
      const float* row = rows.data() + i * stride;
      double s = 0.0;
      for (size_t j = 0; j < half; ++j) {
        const double dx = static_cast<double>(q[j]) - row[j];
        const double dy = static_cast<double>(q[half + j]) - row[half + j];
        s += std::sqrt(dx * dx + dy * dy);
      }
      ExpectClose(s, out[i]);
    }
  }
}

TEST(VecMathTest, ComplexHadamardIsBitExact) {
  Rng rng(7);
  const auto& ops = vec::Ops();
  for (size_t half : kDims) {
    const auto a = RandomVector(rng, 2 * half);
    const auto b = RandomVector(rng, 2 * half);
    for (bool conj_a : {false, true}) {
      std::vector<float> out(2 * half);
      ops.complex_hadamard(a.data(), b.data(), half, conj_a, out.data());
      const float sign = conj_a ? -1.0f : 1.0f;
      for (size_t j = 0; j < half; ++j) {
        const float ar = a[j];
        const float ai = sign * a[half + j];
        EXPECT_EQ(out[j], ar * b[j] - ai * b[half + j]);
        EXPECT_EQ(out[half + j], ar * b[half + j] + ai * b[j]);
      }
    }
  }
}

TEST(VecMathTest, UpdateRowsMatchReferenceBitExactly) {
  Rng rng(8);
  const float lr = 0.05f;
  for (const vec::KernelOps* ops : AllPaths()) {
    SCOPED_TRACE(ops->name);
    for (size_t n : kDims) {
      for (float gscale : {1.0f, -1.0f, 0.75f}) {
        auto p0 = RandomVector(rng, n);
        p0[n - 1] = -0.0f;
        // Large gradients so the ±5 clip fires too, plus the edge values.
        const auto g = EdgeVector(rng, n, -8.0, 8.0);

        std::vector<float> p = p0;
        ops->sgd_update_row(p.data(), g.data(), gscale, n, lr);
        for (size_t j = 0; j < n; ++j) {
          ExpectSameBits(p0[j] - lr * RefClip(gscale * g[j]), p[j], "sgd", j);
        }

        p = p0;
        const auto acc0 = RandomVector(rng, n, 0.0, 1.0);
        std::vector<float> acc = acc0;
        ops->adagrad_update_row(p.data(), acc.data(), g.data(), gscale, n, lr);
        for (size_t j = 0; j < n; ++j) {
          const float gc = RefClip(gscale * g[j]);
          const float a = acc0[j] + gc * gc;
          ExpectSameBits(a, acc[j], "adagrad acc", j);
          ExpectSameBits(p0[j] - lr * gc / std::sqrt(a + 1e-8f), p[j],
                         "adagrad", j);
        }
      }
    }
  }
}

// The fused row updates equal a loop of scalar EmbeddingTable::Update calls
// element for element, on both paths and with both optimizers.
TEST(VecMathTest, UpdateRowMatchesScalarUpdateLoop) {
  Rng rng(13);
  const float lr = 0.05f;
  for (const vec::KernelOps* ops : AllPaths()) {
    SCOPED_TRACE(ops->name);
    for (bool adagrad : {false, true}) {
      for (size_t n : kDims) {
        EmbeddingTable scalar(3, static_cast<int64_t>(n));
        Rng init(n);
        scalar.InitNormal(init, 1.0);
        if (adagrad) scalar.EnableAdaGrad();
        EmbeddingTable fused = scalar;
        for (int step = 0; step < 3; ++step) {
          const auto g = EdgeVector(rng, n, -8.0, 8.0);
          const float gscale = step == 1 ? -0.5f : 1.0f;
          for (size_t j = 0; j < n; ++j) {
            scalar.Update(1, static_cast<int64_t>(j), gscale * g[j], lr);
          }
          WithKernelPath(ops, [&] { fused.UpdateRow(1, g, lr, gscale); });
        }
        EXPECT_EQ(TableBytes(scalar), TableBytes(fused))
            << "adagrad=" << adagrad << " n=" << n;
      }
    }
  }
}

// dense_update_rows against ConvE's former scalar FC backward: a float sum
// over the pre-update row, then one Update per element.
TEST(VecMathTest, DenseUpdateRowsMatchScalarUpdateLoop) {
  Rng rng(14);
  const float lr = 0.03f;
  const float decay = 1e-3f;
  for (const vec::KernelOps* ops : AllPaths()) {
    SCOPED_TRACE(ops->name);
    for (bool adagrad : {false, true}) {
      for (size_t m : {1, 7, 8, 9, 19}) {
        for (size_t n : kDims) {
          EmbeddingTable scalar(static_cast<int64_t>(m + 2),
                                static_cast<int64_t>(n));
          Rng init(m * 1000 + n);
          scalar.InitNormal(init, 2.0);
          if (adagrad) scalar.EnableAdaGrad();
          EmbeddingTable fused = scalar;
          for (int step = 0; step < 3; ++step) {
            // Zero, NaN and infinite inputs on x; the edge values on gy.
            auto x = RandomVector(rng, m, -3.0, 3.0);
            x[0] = step == 0 ? 0.0f : (step == 1 ? -0.0f : 1.0f);
            if (m > 2) x[2] = std::numeric_limits<float>::quiet_NaN();
            if (m > 3) x[3] = std::numeric_limits<float>::infinity();
            const auto gy = EdgeVector(rng, n, -4.0, 4.0);

            std::vector<float> gx_ref(m);
            for (size_t i = 0; i < m; ++i) {
              const int64_t row = static_cast<int64_t>(i) + 1;
              const auto w = scalar.Row(row);
              float sum = 0.0f;
              for (size_t k = 0; k < n; ++k) {
                sum += w[k] * gy[k];
                scalar.Update(row, static_cast<int64_t>(k),
                              x[i] * gy[k] + decay * w[k], lr);
              }
              gx_ref[i] = sum;
            }
            std::vector<float> gx(m);
            WithKernelPath(ops, [&] {
              fused.UpdateDense(1, x, gy, decay, lr, gx);
            });
            ExpectSameBits(gx_ref, gx, "gx", /*open_nans=*/true);
          }
          EXPECT_EQ(TableBytes(scalar), TableBytes(fused))
              << "adagrad=" << adagrad << " m=" << m << " n=" << n;
        }
      }
    }
  }
}

// The scalar loops outer_axpy_rows and outer_update_rows replaced: one
// axpy per row, rows of zero x skipped.
void RefOuterAxpyRows(const std::vector<float>& x, const std::vector<float>& s,
                      const std::vector<float>& rows, size_t n,
                      std::vector<float>& y) {
  for (size_t a = 0; a < x.size(); ++a) {
    if (x[a] == 0.0f) continue;
    for (size_t b = 0; b < s.size(); ++b) {
      const float c = x[a] * s[b];
      for (size_t j = 0; j < n; ++j) {
        y[j] += c * rows[(a * s.size() + b) * n + j];
      }
    }
  }
}

void RefOuterUpdateRows(const std::vector<float>& x,
                        const std::vector<float>& s, float alpha,
                        const std::vector<float>& t, std::vector<float>& rows) {
  const size_t n = t.size();
  for (size_t a = 0; a < x.size(); ++a) {
    if (x[a] == 0.0f) continue;
    for (size_t b = 0; b < s.size(); ++b) {
      const float scale = alpha * x[a] * s[b];
      for (size_t j = 0; j < n; ++j) {
        rows[(a * s.size() + b) * n + j] += -scale * t[j];
      }
    }
  }
}

TEST(VecMathTest, OuterRowKernelsMatchPerRowLoops) {
  Rng rng(15);
  for (const vec::KernelOps* ops : AllPaths()) {
    SCOPED_TRACE(ops->name);
    // na = 300 crosses the kernel's 256-row live-list chunk.
    for (size_t na : {size_t{1}, size_t{5}, size_t{300}}) {
      for (size_t nb : {size_t{1}, size_t{3}}) {
        for (size_t n : kDims) {
          auto x = RandomVector(rng, na);
          for (size_t a = 0; a < na; a += 3) x[a] = 0.0f;  // dead rows
          if (na > 1) x[1] = -0.0f;
          if (na > 4) x[4] = std::numeric_limits<float>::quiet_NaN();
          const auto s = nb == 1 ? std::vector<float>{1.0f}
                                 : EdgeVector(rng, nb, -2.0, 2.0);
          auto rows = RandomVector(rng, na * nb * n);
          if (na > 2) rows[2 * nb * n] = std::numeric_limits<float>::infinity();
          const auto y0 = EdgeVector(rng, n, -1.0, 1.0);

          std::vector<float> want = y0;
          RefOuterAxpyRows(x, s, rows, n, want);
          std::vector<float> got = y0;
          ops->outer_axpy_rows(x.data(), na, s.data(), nb, rows.data(), n,
                               got.data());
          ExpectSameBits(want, got, "outer_axpy_rows", /*open_nans=*/true);

          const auto t = EdgeVector(rng, n, -1.0, 1.0);
          std::vector<float> want_rows = rows;
          RefOuterUpdateRows(x, s, -0.07f, t, want_rows);
          std::vector<float> got_rows = rows;
          ops->outer_update_rows(x.data(), na, s.data(), nb, -0.07f, t.data(),
                                 got_rows.data(), n);
          ExpectSameBits(want_rows, got_rows, "outer_update_rows",
                         /*open_nans=*/true);
        }
      }
    }
  }
}

// conv2d_relu against ConvE's former scalar convolution: per output, the
// bias, then every tap in (ky, kx) order, summed in double.
TEST(VecMathTest, Conv2dReluMatchesScalarConvolution) {
  Rng rng(16);
  struct Shape {
    size_t in_h, in_w, nf, k;
  };
  // ConvE's own 16 x 4 grid with 8 filters, a tail of filters past the
  // 8-lane groups, a 1 x 1 kernel, and more positions than one block.
  const Shape kShapes[] = {{16, 4, 8, 3}, {5, 7, 11, 3}, {3, 3, 2, 1},
                           {40, 6, 9, 3}, {6, 6, 8, 5}};
  for (const vec::KernelOps* ops : AllPaths()) {
    SCOPED_TRACE(ops->name);
    for (const Shape& sh : kShapes) {
      const size_t taps = sh.k * sh.k;
      const size_t oh = sh.in_h - sh.k + 1;
      const size_t ow = sh.in_w - sh.k + 1;
      auto in = RandomVector(rng, sh.in_h * sh.in_w);
      in[1] = std::numeric_limits<float>::quiet_NaN();
      in[sh.in_w + 2] = -0.0f;
      auto kernels = RandomVector(rng, sh.nf * taps, -0.5, 0.5);
      for (size_t t = 0; t < taps; ++t) kernels[t] = -0.0f;  // filter 0
      std::vector<double> bias(sh.nf);
      for (size_t f = 0; f < sh.nf; ++f) bias[f] = rng.UniformDouble(-1, 1);
      bias[0] = -0.0;
      std::vector<double> tap_major(taps * sh.nf);
      for (size_t f = 0; f < sh.nf; ++f) {
        for (size_t t = 0; t < taps; ++t) {
          tap_major[t * sh.nf + f] = kernels[f * taps + t];
        }
      }

      std::vector<float> want_pre(sh.nf * oh * ow);
      std::vector<float> want_feat(want_pre.size());
      for (size_t f = 0; f < sh.nf; ++f) {
        for (size_t oy = 0; oy < oh; ++oy) {
          for (size_t ox = 0; ox < ow; ++ox) {
            double sum = bias[f];
            for (size_t ky = 0; ky < sh.k; ++ky) {
              for (size_t kx = 0; kx < sh.k; ++kx) {
                sum += static_cast<double>(kernels[f * taps + ky * sh.k + kx]) *
                       in[(oy + ky) * sh.in_w + ox + kx];
              }
            }
            const size_t idx = (f * oh + oy) * ow + ox;
            want_pre[idx] = static_cast<float>(sum);
            want_feat[idx] = sum > 0 ? static_cast<float>(sum) : 0.0f;
          }
        }
      }
      std::vector<float> pre(want_pre.size());
      std::vector<float> feat(want_pre.size());
      ops->conv2d_relu(in.data(), sh.in_h, sh.in_w, tap_major.data(),
                       bias.data(), sh.nf, sh.k, pre.data(), feat.data());
      ExpectSameBits(want_pre, pre, "pre");
      ExpectSameBits(want_feat, feat, "feat");
    }

    // Random sums in double rarely show their order once rounded to float,
    // so pin it with taps 1 and 2 cancelling at 2^60: in order the bias is
    // absorbed and only taps 3..8 survive (6 * 0.5 = 3); any other order
    // ends elsewhere (reversed: 0.5).
    const std::vector<float> in(9, 1.0f);
    std::vector<double> taps(9, 0.5);
    taps[1] = std::ldexp(1.0, 60);
    taps[2] = -std::ldexp(1.0, 60);
    const double bias = 1.0;
    float pre = 0.0f;
    float feat = 0.0f;
    ops->conv2d_relu(in.data(), 3, 3, taps.data(), &bias, 1, 3, &pre, &feat);
    EXPECT_EQ(pre, 3.0f);
    EXPECT_EQ(feat, 3.0f);
  }
}

// The blocked multi-query sweeps promise the exact bits of the single-query
// kernels for every (query, row) pair — the top-K engine's equivalence with
// the full ranking sweep rests on it — so compare with EXPECT_EQ, on both
// dispatch paths, including strided rows and a padded out_stride.
TEST(VecMathTest, BlockSweepsMatchSingleQueryBitExactly) {
  Rng rng(12);
  for (const vec::KernelOps* ops : AllPaths()) {
    for (size_t dim : kDims) {
      const size_t num_rows = 11;
      const size_t num_q = 5;
      const size_t stride = dim + 3;  // strided candidate table
      const size_t out_stride = num_rows + 2;
      const auto qs = RandomVector(rng, num_q * dim);
      const auto rows = RandomVector(rng, num_rows * stride);
      const auto v = RandomVector(rng, dim);
      const auto coef = RandomVector(rng, num_rows);
      std::vector<float> block(num_q * out_stride);
      std::vector<float> single(num_rows);

      const auto per_query = [&](auto&& fill_single) {
        for (size_t qi = 0; qi < num_q; ++qi) {
          fill_single(qs.data() + qi * dim);
          for (size_t i = 0; i < num_rows; ++i) {
            EXPECT_EQ(block[qi * out_stride + i], single[i])
                << ops->name << " dim=" << dim << " q=" << qi << " row=" << i;
          }
        }
      };

      ops->dot_rows_block(qs.data(), dim, num_q, rows.data(), num_rows,
                          stride, dim, block.data(), out_stride);
      per_query([&](const float* q) {
        ops->dot_rows(q, rows.data(), num_rows, stride, dim, single.data());
      });

      ops->l1_rows_block(qs.data(), dim, num_q, rows.data(), num_rows, stride,
                         dim, block.data(), out_stride);
      per_query([&](const float* q) {
        ops->l1_rows(q, rows.data(), num_rows, stride, dim, single.data());
      });

      ops->l2_rows_block(qs.data(), dim, num_q, rows.data(), num_rows, stride,
                         dim, block.data(), out_stride);
      per_query([&](const float* q) {
        ops->l2_rows(q, rows.data(), num_rows, stride, dim, single.data());
      });

      for (float coef_scale : {1.0f, -1.0f}) {
        ops->l1_offset_rows_block(qs.data(), dim, num_q, v.data(),
                                  coef.data(), coef_scale, rows.data(),
                                  num_rows, stride, dim, block.data(),
                                  out_stride);
        per_query([&](const float* q) {
          ops->l1_offset_rows(q, v.data(), coef.data(), coef_scale,
                              rows.data(), num_rows, stride, dim,
                              single.data());
        });
        ops->l2_offset_rows_block(qs.data(), dim, num_q, v.data(),
                                  coef.data(), coef_scale, rows.data(),
                                  num_rows, stride, dim, block.data(),
                                  out_stride);
        per_query([&](const float* q) {
          ops->l2_offset_rows(q, v.data(), coef.data(), coef_scale,
                              rows.data(), num_rows, stride, dim,
                              single.data());
        });
      }

      // cabs uses the split re/im layout: dim here is half_dim and each
      // query/row occupies 2 * half_dim floats.
      const size_t half = dim;
      const size_t cstride = 2 * half + 1;
      const auto cqs = RandomVector(rng, num_q * 2 * half);
      const auto crows = RandomVector(rng, num_rows * cstride);
      ops->cabs_rows_block(cqs.data(), 2 * half, num_q, crows.data(),
                           num_rows, cstride, half, block.data(), out_stride);
      for (size_t qi = 0; qi < num_q; ++qi) {
        ops->cabs_rows(cqs.data() + qi * 2 * half, crows.data(), num_rows,
                       cstride, half, single.data());
        for (size_t i = 0; i < num_rows; ++i) {
          EXPECT_EQ(block[qi * out_stride + i], single[i])
              << ops->name << " cabs half=" << half << " q=" << qi;
        }
      }
    }
  }
}

// --- Dispatch paths ---------------------------------------------------------

// The generic and native TUs compile the same kernel source with
// -ffp-contract=off, so they must agree bit for bit on every kernel.
TEST(VecMathDispatchTest, GenericAndNativePathsAgreeBitExactly) {
  if (!vec::NativeKernelsAvailable()) {
    GTEST_SKIP() << "native kernel path not compiled in or unsupported CPU";
  }
  const auto& gen = vec::OpsFor(vec::KernelPath::kGeneric);
  const auto& nat = vec::OpsFor(vec::KernelPath::kNative);
  ASSERT_NE(&gen, &nat);
  EXPECT_STREQ(nat.name, "native");

  Rng rng(9);
  for (size_t dim : kDims) {
    const size_t num_rows = 9;
    const auto q = RandomVector(rng, 2 * dim);
    const auto v = RandomVector(rng, dim);
    const auto coef = RandomVector(rng, num_rows);
    const auto rows = RandomVector(rng, num_rows * 2 * dim);
    const auto g = RandomVector(rng, dim, -8.0, 8.0);

    EXPECT_EQ(gen.dot(q.data(), v.data(), dim),
              nat.dot(q.data(), v.data(), dim));
    EXPECT_EQ(gen.sum(q.data(), dim), nat.sum(q.data(), dim));

    std::vector<float> out_g(num_rows);
    std::vector<float> out_n(num_rows);
    const auto expect_rows_eq = [&] {
      for (size_t i = 0; i < num_rows; ++i) EXPECT_EQ(out_g[i], out_n[i]);
    };
    gen.dot_rows(q.data(), rows.data(), num_rows, 2 * dim, dim, out_g.data());
    nat.dot_rows(q.data(), rows.data(), num_rows, 2 * dim, dim, out_n.data());
    expect_rows_eq();
    gen.rowwise_dot(rows.data(), 2 * dim, rows.data() + dim, 2 * dim,
                    num_rows, dim, out_g.data());
    nat.rowwise_dot(rows.data(), 2 * dim, rows.data() + dim, 2 * dim,
                    num_rows, dim, out_n.data());
    expect_rows_eq();
    gen.l1_rows(q.data(), rows.data(), num_rows, 2 * dim, dim, out_g.data());
    nat.l1_rows(q.data(), rows.data(), num_rows, 2 * dim, dim, out_n.data());
    expect_rows_eq();
    gen.l2_rows(q.data(), rows.data(), num_rows, 2 * dim, dim, out_g.data());
    nat.l2_rows(q.data(), rows.data(), num_rows, 2 * dim, dim, out_n.data());
    expect_rows_eq();
    gen.l1_offset_rows(q.data(), v.data(), coef.data(), -1.0f, rows.data(),
                       num_rows, 2 * dim, dim, out_g.data());
    nat.l1_offset_rows(q.data(), v.data(), coef.data(), -1.0f, rows.data(),
                       num_rows, 2 * dim, dim, out_n.data());
    expect_rows_eq();
    gen.l2_offset_rows(q.data(), v.data(), coef.data(), 1.0f, rows.data(),
                       num_rows, 2 * dim, dim, out_g.data());
    nat.l2_offset_rows(q.data(), v.data(), coef.data(), 1.0f, rows.data(),
                       num_rows, 2 * dim, dim, out_n.data());
    expect_rows_eq();
    gen.cabs_rows(q.data(), rows.data(), num_rows, 2 * dim, dim, out_g.data());
    nat.cabs_rows(q.data(), rows.data(), num_rows, 2 * dim, dim, out_n.data());
    expect_rows_eq();

    std::vector<float> had_g(2 * dim);
    std::vector<float> had_n(2 * dim);
    gen.complex_hadamard(q.data(), rows.data(), dim, true, had_g.data());
    nat.complex_hadamard(q.data(), rows.data(), dim, true, had_n.data());
    for (size_t j = 0; j < 2 * dim; ++j) EXPECT_EQ(had_g[j], had_n[j]);

    std::vector<float> y_g(q.begin(), q.begin() + static_cast<long>(dim));
    std::vector<float> y_n = y_g;
    gen.axpy(0.37f, v.data(), y_g.data(), dim);
    nat.axpy(0.37f, v.data(), y_n.data(), dim);
    gen.scale(y_g.data(), dim, 1.5f);
    nat.scale(y_n.data(), dim, 1.5f);
    std::vector<float> acc_g(dim, 0.25f);
    std::vector<float> acc_n(dim, 0.25f);
    gen.sgd_update_row(y_g.data(), g.data(), -1.0f, dim, 0.05f);
    nat.sgd_update_row(y_n.data(), g.data(), -1.0f, dim, 0.05f);
    gen.adagrad_update_row(y_g.data(), acc_g.data(), g.data(), 1.0f, dim,
                           0.05f);
    nat.adagrad_update_row(y_n.data(), acc_n.data(), g.data(), 1.0f, dim,
                           0.05f);
    for (size_t j = 0; j < dim; ++j) {
      EXPECT_EQ(y_g[j], y_n[j]);
      EXPECT_EQ(acc_g[j], acc_n[j]);
    }
  }
}

TEST(VecMathDispatchTest, OpsForFallsBackWhenNativeUnavailable) {
  const auto& gen = vec::OpsFor(vec::KernelPath::kGeneric);
  EXPECT_STREQ(gen.name, "generic");
  const auto& nat = vec::OpsFor(vec::KernelPath::kNative);
  if (!vec::NativeKernelsAvailable()) {
    EXPECT_EQ(&gen, &nat);  // silent fallback to the only compiled path
  } else {
    EXPECT_STREQ(nat.name, "native");
  }
}

// --- Scratch ----------------------------------------------------------------

TEST(VecMathScratchTest, IsAlignedPersistentAndPerSlot) {
  auto a = vec::GetScratch(17, 0);
  ASSERT_EQ(a.size(), 17u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a.data()) % kKernelAlignment, 0u);
  for (size_t j = 0; j < a.size(); ++j) a[j] = static_cast<float>(j);
  auto b = vec::GetScratch(5, 1);
  EXPECT_NE(a.data(), b.data());  // distinct slots do not alias
  for (size_t j = 0; j < b.size(); ++j) b[j] = -1.0f;
  // Slot 0 grows without losing its prefix and stays aligned.
  auto a2 = vec::GetScratch(64, 0);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a2.data()) % kKernelAlignment, 0u);
  auto a3 = vec::GetScratch(8, 0);
  for (size_t j = 0; j < a3.size(); ++j) {
    EXPECT_EQ(a3[j], static_cast<float>(j));  // shrink requests keep contents
  }
}

}  // namespace
}  // namespace kgc
