// Dense embedding storage with built-in SGD / AdaGrad updates.

#ifndef KGC_MODELS_EMBEDDING_H_
#define KGC_MODELS_EMBEDDING_H_

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "util/aligned.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/vecmath.h"

namespace kgc {

/// A rows x dim table of float parameters. Supports plain SGD and AdaGrad
/// updates; AdaGrad accumulators are allocated lazily on first use.
///
/// Storage is contiguous row-major and 64-byte aligned so the scoring
/// kernels (util/vecmath.h) can stream rows directly; the serialization
/// format is unchanged from the std::vector days (plain float payload).
class EmbeddingTable {
 public:
  EmbeddingTable() = default;
  EmbeddingTable(int64_t rows, int64_t dim)
      : rows_(rows), dim_(dim),
        data_(static_cast<size_t>(rows * dim), 0.0f) {
    KGC_CHECK_GE(rows, 0);
    KGC_CHECK_GT(dim, 0);
  }

  int64_t rows() const { return rows_; }
  int64_t dim() const { return dim_; }

  std::span<float> Row(int64_t i) {
    KGC_DCHECK(i >= 0 && i < rows_);
    return {data_.data() + i * dim_, static_cast<size_t>(dim_)};
  }
  std::span<const float> Row(int64_t i) const {
    KGC_DCHECK(i >= 0 && i < rows_);
    return {data_.data() + i * dim_, static_cast<size_t>(dim_)};
  }

  /// Pointer to the first element of row 0; rows are `dim()` floats apart.
  /// This is the base pointer the row-sweep kernels walk.
  const float* raw() const { return data_.data(); }

  /// Uniform initialization in [-bound, bound]; the conventional bound is
  /// 6/sqrt(dim) (Bordes et al. 2013).
  void InitUniform(Rng& rng, double bound);

  /// Gaussian initialization with the given stddev.
  void InitNormal(Rng& rng, double stddev);

  /// L2-normalizes every row (used for entity embeddings in Trans* models).
  void NormalizeRowsL2();

  /// L2-normalizes one row in place; no-op on a zero row.
  void NormalizeRowL2(int64_t i);

  /// Enables AdaGrad with a unit prior: updates scale by
  /// 1/sqrt(1 + accumulated g^2). The prior removes AdaGrad's initial jolt
  /// (the first step would otherwise be ~lr regardless of gradient size,
  /// which destabilizes dense layers), making early training behave like
  /// plain SGD and later training self-stabilize.
  void EnableAdaGrad();
  bool adagrad_enabled() const { return !adagrad_.empty(); }

  /// Applies one gradient element: param[i][j] -= lr * g (SGD), or the
  /// AdaGrad-scaled equivalent. Gradients are clipped to [-5, 5] as a cheap
  /// divergence guard (matters for the deep ConvE stack).
  void Update(int64_t i, int64_t j, float g, float lr) {
    g = std::clamp(g, -5.0f, 5.0f);
    const size_t idx = static_cast<size_t>(i * dim_ + j);
    if (!adagrad_.empty()) {
      adagrad_[idx] += g * g;
      data_[idx] -= lr * g / std::sqrt(adagrad_[idx] + 1e-8f);
    } else {
      data_[idx] -= lr * g;
    }
  }

  /// Applies a dense gradient to one row through the fused row-update
  /// kernels: the SGD/AdaGrad branch and the row base-index arithmetic are
  /// resolved once per row instead of once per float. `gscale` multiplies
  /// every gradient element before clipping, so callers that previously
  /// scaled into a temporary can pass the raw gradient plus a scale.
  void UpdateRow(int64_t i, std::span<const float> grad, float lr,
                 float gscale = 1.0f) {
    KGC_DCHECK(static_cast<int64_t>(grad.size()) == dim_);
    const size_t base = static_cast<size_t>(i * dim_);
    const auto& ops = vec::Ops();
    if (!adagrad_.empty()) {
      ops.adagrad_update_row(data_.data() + base, adagrad_.data() + base,
                             grad.data(), gscale,
                             static_cast<size_t>(dim_), lr);
    } else {
      ops.sgd_update_row(data_.data() + base, grad.data(), gscale,
                         static_cast<size_t>(dim_), lr);
    }
  }

  /// Dense-layer step over rows [first, first + x.size()): element (i, k)
  /// takes the gradient x[i] * gy[k] + decay * param[i][k] (its value before
  /// this call), clipped and applied exactly as Update does. A non-empty
  /// `gx` receives sum_k param[i][k] * gy[k] over the pre-update rows.
  void UpdateDense(int64_t first, std::span<const float> x,
                   std::span<const float> gy, float decay, float lr,
                   std::span<float> gx = {}) {
    KGC_DCHECK(static_cast<int64_t>(gy.size()) == dim_);
    KGC_DCHECK(first >= 0 &&
               first + static_cast<int64_t>(x.size()) <= rows_);
    KGC_DCHECK(gx.empty() || gx.size() == x.size());
    const size_t base = static_cast<size_t>(first * dim_);
    float* acc = adagrad_.empty() ? nullptr : adagrad_.data() + base;
    vec::Ops().dense_update_rows(data_.data() + base, acc, x.data(), gy.data(),
                                 decay, x.size(), static_cast<size_t>(dim_),
                                 lr, gx.empty() ? nullptr : gx.data());
  }

  /// Raw parameter access (serialization, tests).
  const AlignedVector<float>& data() const { return data_; }
  AlignedVector<float>& mutable_data() { return data_; }

  void Serialize(BinaryWriter& writer) const;
  Status Deserialize(BinaryReader& reader);

 private:
  int64_t rows_ = 0;
  int64_t dim_ = 0;
  AlignedVector<float> data_;
  AlignedVector<float> adagrad_;
};

/// Dot product of two equal-length spans (kernel-dispatched).
inline double Dot(std::span<const float> a, std::span<const float> b) {
  KGC_DCHECK(a.size() == b.size());
  return vec::Dot(a.data(), b.data(), a.size());
}

/// L2 norm of a span.
inline double NormL2(std::span<const float> a) {
  return std::sqrt(Dot(a, a));
}

}  // namespace kgc

#endif  // KGC_MODELS_EMBEDDING_H_
