// Vectorized scoring-kernel library: the math primitives under every
// model's Score / ScoreTails / ScoreHeads and the trainer's row updates.
//
// Numerics contract
// -----------------
// Every reduction (dot, distances, sums) accumulates in double across
// kReduceLanes fixed lanes: lane k owns elements k, k+kReduceLanes, ... in
// order, and the lanes are combined with one fixed binary tree at the end.
// That order is a pure function of the element count — it never depends on
// thread count, dispatch path, or call site — so kernel results are
// bit-identical run to run and across KGC_THREADS. Element-wise kernels
// (axpy, scale, hadamard, row updates) have no reduction and are trivially
// deterministic. The training kernels (outer_*, conv2d_relu,
// conv2d_backward, dense_update_rows) keep the element order of the scalar
// loops they replaced, including dense's sequential float sums (its 8 x 8
// register transposes only move data) and the conv backward's walk, in
// which each position reads the filter the previous one stepped, so
// trained models are the same bits as well. The float twins of the sweeps
// (KernelOps::*_bound) reduce in float through the same lane shape, so
// their values agree across paths too. A NaN result is NaN on every path,
// but its sign and payload are not pinned: IEEE 754 leaves them open, and
// the compiler may commute operands or fold a negation that picks them.
//
// Dispatch
// --------
// Two translation units compile the same kernel source: a generic TU
// (baseline ISA) and, where the toolchain supports it, a -march=x86-64-v3
// TU (AVX2). Both are built with -ffp-contract=off so neither can fuse
// multiply-adds, which is what makes the two paths agree bit-exactly: wider
// registers only evaluate more lanes at once, they never change any lane's
// operation sequence. Both also take -fno-math-errno -fno-trapping-math,
// which cannot change a value (sqrt still rounds correctly, it just skips
// the errno fallback; no trap is ever enabled) but let sqrt and the
// gradient clip vectorize. The native table is the default wherever the
// CPU supports x86-64-v3; KGC_KERNEL=generic overrides it, resolved once
// on first use. Tests pin both paths' agreement.
//
// Scratch
// -------
// GetScratch hands out per-thread reusable buffers so the scoring hot path
// never touches the heap per call. Slots are per call frame by convention:
// a function may use any slots it likes but must not call another function
// that uses the same slot while the span is live.

#ifndef KGC_UTIL_VECMATH_H_
#define KGC_UTIL_VECMATH_H_

#include <cstddef>
#include <span>

namespace kgc::vec {

/// Fixed number of reduction lanes (see the numerics contract above).
/// Exposed so tests can probe dims of kReduceLanes ± 1.
inline constexpr size_t kReduceLanes = 8;

/// Number of independent per-thread scratch slots.
inline constexpr int kScratchSlots = 6;

/// The kernel table one dispatch path provides. All `rows` pointers walk
/// `num_rows` rows of `stride` floats, reading the first `dim` of each —
/// exactly the contiguous layout of EmbeddingTable storage.
struct KernelOps {
  /// Human-readable path name ("generic" / "native").
  const char* name;

  /// sum_j a[j] * b[j], accumulated in double.
  double (*dot)(const float* a, const float* b, size_t n);

  /// sum_j a[j], accumulated in double.
  double (*sum)(const float* a, size_t n);

  /// y[j] += alpha * x[j] (element-wise, no reduction).
  void (*axpy)(float alpha, const float* x, float* y, size_t n);

  /// x[j] *= s.
  void (*scale)(float* x, size_t n, float s);

  /// out[i] = dot(q, row_i).
  void (*dot_rows)(const float* q, const float* rows, size_t num_rows,
                   size_t stride, size_t dim, float* out);

  /// out[i] = dot(a_row_i, b_row_i) — paired rows of two tables.
  void (*rowwise_dot)(const float* a_rows, size_t a_stride,
                      const float* b_rows, size_t b_stride, size_t num_rows,
                      size_t dim, float* out);

  /// out[i] = sum_j |q[j] - row_i[j]|.
  void (*l1_rows)(const float* q, const float* rows, size_t num_rows,
                  size_t stride, size_t dim, float* out);

  /// out[i] = sqrt(sum_j (q[j] - row_i[j])^2).
  void (*l2_rows)(const float* q, const float* rows, size_t num_rows,
                  size_t stride, size_t dim, float* out);

  /// out[i] = sum_j |q[j] + coef_scale * coef[i] * v[j] - row_i[j]| — the
  /// hyperplane/diagonal-projection form shared by TransH and TransD.
  void (*l1_offset_rows)(const float* q, const float* v, const float* coef,
                         float coef_scale, const float* rows, size_t num_rows,
                         size_t stride, size_t dim, float* out);

  /// L2 (sqrt) variant of l1_offset_rows.
  void (*l2_offset_rows)(const float* q, const float* v, const float* coef,
                         float coef_scale, const float* rows, size_t num_rows,
                         size_t stride, size_t dim, float* out);

  /// Complex modulus distance (RotatE): rows and q hold half_dim real parts
  /// then half_dim imaginary parts; out[i] = sum_j |q_j - row_i_j| over the
  /// complex elements (sqrt of the 2-D squared distance per element).
  void (*cabs_rows)(const float* q, const float* rows, size_t num_rows,
                    size_t stride, size_t half_dim, float* out);

  /// Blocked multi-query variants: num_q query vectors (qs walks `q_stride`
  /// floats per query) against the same rows, writing num_q score rows of
  /// `out_stride` floats each: out[qi * out_stride + i] = kernel(q_qi, row_i).
  /// The inner (per-query) loop runs inside the row loop so each embedding
  /// row is loaded once per tile and scored against the whole query block.
  /// Per (query, row) the reduction is the same Reduce() expression as the
  /// single-query kernel above, so scores are bit-exact vs that path.
  void (*dot_rows_block)(const float* qs, size_t q_stride, size_t num_q,
                         const float* rows, size_t num_rows, size_t stride,
                         size_t dim, float* out, size_t out_stride);

  /// Blocked l1_rows (see dot_rows_block for the layout contract).
  void (*l1_rows_block)(const float* qs, size_t q_stride, size_t num_q,
                        const float* rows, size_t num_rows, size_t stride,
                        size_t dim, float* out, size_t out_stride);

  /// Blocked l2_rows.
  void (*l2_rows_block)(const float* qs, size_t q_stride, size_t num_q,
                        const float* rows, size_t num_rows, size_t stride,
                        size_t dim, float* out, size_t out_stride);

  /// Blocked l1_offset_rows. The per-row coefficient array is shared by the
  /// whole query block: coef[i] depends only on the relation and row (w·e_i
  /// for TransH, p_t·t for TransD), never on the query.
  void (*l1_offset_rows_block)(const float* qs, size_t q_stride, size_t num_q,
                               const float* v, const float* coef,
                               float coef_scale, const float* rows,
                               size_t num_rows, size_t stride, size_t dim,
                               float* out, size_t out_stride);

  /// Blocked l2_offset_rows.
  void (*l2_offset_rows_block)(const float* qs, size_t q_stride, size_t num_q,
                               const float* v, const float* coef,
                               float coef_scale, const float* rows,
                               size_t num_rows, size_t stride, size_t dim,
                               float* out, size_t out_stride);

  /// Blocked cabs_rows (q_stride covers the full 2 * half_dim layout).
  void (*cabs_rows_block)(const float* qs, size_t q_stride, size_t num_q,
                          const float* rows, size_t num_rows, size_t stride,
                          size_t half_dim, float* out, size_t out_stride);

  /// Complex Hadamard product in split re/im layout: out = a ∘ b, or
  /// conj(a) ∘ b when conj_a is set. Element-wise, no reduction.
  void (*complex_hadamard)(const float* a, const float* b, size_t half_dim,
                           bool conj_a, float* out);

  /// Row accumulation with outer-product coefficients over na * nb rows of
  /// n floats: for a in order, skipping x[a] == 0, and b in order,
  /// y[j] += (x[a] * s[b]) * row_{a*nb+b}[j]. The same float operations,
  /// in the same order per y[j], as one axpy call per row (TuckER's core
  /// contraction; with nb = 1, s = {1}, ConvE's FC forward).
  void (*outer_axpy_rows)(const float* x, size_t na, const float* s,
                          size_t nb, const float* rows, size_t n, float* y);

  /// Rank-one row update in the same (a, b) walk and x[a] == 0 skip:
  /// row_{a*nb+b}[j] += -(alpha * x[a] * s[b]) * t[j] (TuckER's core step).
  void (*outer_update_rows)(const float* x, size_t na, const float* s,
                            size_t nb, float alpha, const float* t,
                            float* rows, size_t n);

  /// Valid, stride-1 convolution of nf k x k filters over an in_h x in_w
  /// grid (ConvE), taps given tap-major in double: taps[(ky*k + kx)*nf + f].
  /// Output (f, oy, ox), filter-major, is bias[f] plus the taps in (ky, kx)
  /// order, summed in double; pre takes it as float and feat its ReLU.
  void (*conv2d_relu)(const float* in, size_t in_h, size_t in_w,
                      const double* taps, const double* bias, size_t nf,
                      size_t k, float* pre, float* feat);

  /// Fused SGD row update: p[j] -= lr * clamp(gscale * g[j], ±5), matching
  /// EmbeddingTable::Update element for element.
  void (*sgd_update_row)(float* p, const float* g, float gscale, size_t n,
                         float lr);

  /// Fused AdaGrad row update: gc = clamp(gscale * g[j], ±5);
  /// acc[j] += gc^2; p[j] -= lr * gc / sqrt(acc[j] + 1e-8f).
  void (*adagrad_update_row)(float* p, float* acc, const float* g,
                             float gscale, size_t n, float lr);

  /// Dense-layer step over m rows of n floats: row i takes the SGD
  /// (acc == nullptr) or AdaGrad step of the gradient
  /// x[i] * gy[k] + decay * w_i[k] (its pre-update value), element for
  /// element EmbeddingTable::Update's arithmetic. Unless gx is null,
  /// gx[i] = sum_k w_i[k] * gy[k] over the pre-update row, summed in float
  /// in k order. Full 8 x 8 tiles are read once: transposed in registers
  /// for gx, then stepped in place.
  void (*dense_update_rows)(float* w, float* acc, const float* x,
                            const float* gy, float decay, size_t m, size_t n,
                            float lr, float* gx);

  /// Backward of conv2d_relu (ConvE), stepping the filters as it goes. For
  /// each filter f in order, and each output position in row-major order
  /// whose pre > 0 and whose gradient g = gpre[(f, oy, ox)] != 0: every tap
  /// (ky, kx) adds g * w_f[tap] into gin[(oy + ky) * in_w + ox + kx],
  /// reading the filter as the previous position left it; then w_f (k * k
  /// floats, filter-major like conv2d_relu's taps) takes the SGD
  /// (acc == nullptr) or AdaGrad step of the gradient g * in[...], as
  /// sgd_update_row / adagrad_update_row with gscale g. gbias[f] is the sum
  /// of those g, in order, in float. gin is added to, not overwritten.
  void (*conv2d_backward)(const float* in, size_t in_h, size_t in_w,
                          const float* pre, const float* gpre, size_t nf,
                          size_t k, float lr, float* w, float* acc,
                          float* gbias, float* gin);

  /// Float twins of the single-query sweeps, same arguments: per row an
  /// approximation approx[i], reduced in float through the same 8-lane
  /// shape, and a bound err[i] with |approx[i] - out[i]| <= err[i], where
  /// out[i] is what the exact kernel writes, wherever both are finite (err
  /// is infinite on overflow or NaN). The bounds follow from float's
  /// rounding model; vecmath_kernels.inc derives each kind's.
  void (*dot_rows_bound)(const float* q, const float* rows, size_t num_rows,
                         size_t stride, size_t dim, float* approx,
                         float* err);
  void (*l1_rows_bound)(const float* q, const float* rows, size_t num_rows,
                        size_t stride, size_t dim, float* approx, float* err);
  void (*l2_rows_bound)(const float* q, const float* rows, size_t num_rows,
                        size_t stride, size_t dim, float* approx, float* err);
  void (*l1_offset_rows_bound)(const float* q, const float* v,
                               const float* coef, float coef_scale,
                               const float* rows, size_t num_rows,
                               size_t stride, size_t dim, float* approx,
                               float* err);
  void (*l2_offset_rows_bound)(const float* q, const float* v,
                               const float* coef, float coef_scale,
                               const float* rows, size_t num_rows,
                               size_t stride, size_t dim, float* approx,
                               float* err);
  void (*cabs_rows_bound)(const float* q, const float* rows, size_t num_rows,
                          size_t stride, size_t half_dim, float* approx,
                          float* err);

  /// Score intervals from a twin's output, in place: lo[i] and hi[i] hold
  /// a twin's approx[i] and err[i] on entry, and on return approx[i] -
  /// err[i] and approx[i] + err[i] rounded outward, plus bias[i] (unless
  /// bias is null) with the one float add a sweep's bias makes, swapped
  /// and negated when `negate` is set, as a sweep's sign is. Returns false
  /// when some end is not finite.
  bool (*twin_interval)(float* lo, float* hi, const float* bias, bool negate,
                        size_t n);

  /// Returns how many rows straddle t (lo[i] <= t <= hi[i]) and stores how
  /// many lie above it (lo[i] > t) in *above; n < 2^32.
  size_t (*count_straddling)(const float* lo, const float* hi, size_t n,
                             float t, size_t* above);
};

enum class KernelPath { kGeneric = 0, kNative = 1 };

/// The active kernel table, resolved once on first use: the native
/// (-march) table when it was compiled in and the CPU supports it, else
/// generic. KGC_KERNEL=generic forces the generic table; KGC_KERNEL=native
/// warns when native is unavailable.
const KernelOps& Ops();

/// True when the -march TU was compiled in and this CPU can run it.
bool NativeKernelsAvailable();

/// The table for an explicit path; kNative falls back to generic when
/// unavailable. Lets tests and benchmarks compare paths directly.
const KernelOps& OpsFor(KernelPath path);

/// Overrides the active table (not thread-safe; call before spawning
/// parallel work). Used by tests and the kernel benchmark sections.
void SetKernelPathForTest(KernelPath path);

/// Per-thread reusable scratch: n floats, 64-byte aligned, valid until the
/// next GetScratch call with the same slot on this thread. Contents are
/// unspecified on entry.
std::span<float> GetScratch(size_t n, int slot = 0);

/// out[j] = -out[j]. Element-wise sign flip used to turn kernel distances
/// into scores; cheap enough that it needs no dispatch.
inline void Negate(std::span<float> out) {
  for (float& v : out) v = -v;
}

// Convenience forwarders through the active table.
inline double Dot(const float* a, const float* b, size_t n) {
  return Ops().dot(a, b, n);
}
inline double Sum(const float* a, size_t n) { return Ops().sum(a, n); }
inline void Axpy(float alpha, const float* x, float* y, size_t n) {
  Ops().axpy(alpha, x, y, n);
}

}  // namespace kgc::vec

#endif  // KGC_UTIL_VECMATH_H_
