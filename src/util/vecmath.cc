// Kernel dispatch and per-thread scratch for util/vecmath.h.

#include "util/vecmath.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/aligned.h"

namespace kgc::vec {

// Provided by vecmath_generic.cc / vecmath_native.cc; the native one
// returns nullptr when the -march TU was not compiled in.
const KernelOps* GetGenericOpsImpl();
const KernelOps* GetNativeOpsImpl();

namespace {

bool CpuSupportsNative() {
#if defined(__x86_64__) && defined(__GNUC__)
  return __builtin_cpu_supports("x86-64-v3") != 0;
#else
  return false;
#endif
}

// Native wherever it runs; KGC_KERNEL=generic is the override.
const KernelOps* ResolveFromEnv() {
  const KernelOps* best =
      NativeKernelsAvailable() ? GetNativeOpsImpl() : GetGenericOpsImpl();
  const char* env = std::getenv("KGC_KERNEL");
  if (env == nullptr || env[0] == '\0') return best;
  if (std::strcmp(env, "generic") == 0) return GetGenericOpsImpl();
  if (std::strcmp(env, "native") == 0) {
    if (best != GetNativeOpsImpl()) {
      std::fprintf(stderr,
                   "[kgc] KGC_KERNEL=native requested but native kernels are "
                   "unavailable on this build/CPU; using generic kernels\n");
    }
    return best;
  }
  std::fprintf(stderr,
               "[kgc] unknown KGC_KERNEL value \"%s\" (expected \"generic\" "
               "or \"native\"); using %s kernels\n",
               env, best->name);
  return best;
}

std::atomic<const KernelOps*> g_active{nullptr};

}  // namespace

bool NativeKernelsAvailable() {
  return GetNativeOpsImpl() != nullptr && CpuSupportsNative();
}

const KernelOps& Ops() {
  const KernelOps* ops = g_active.load(std::memory_order_acquire);
  if (ops == nullptr) {
    // ResolveFromEnv is deterministic, so a first-use race between threads
    // resolves to the same table either way.
    ops = ResolveFromEnv();
    g_active.store(ops, std::memory_order_release);
  }
  return *ops;
}

const KernelOps& OpsFor(KernelPath path) {
  if (path == KernelPath::kNative && NativeKernelsAvailable()) {
    return *GetNativeOpsImpl();
  }
  return *GetGenericOpsImpl();
}

void SetKernelPathForTest(KernelPath path) {
  g_active.store(&OpsFor(path), std::memory_order_release);
}

std::span<float> GetScratch(size_t n, int slot) {
  static thread_local AlignedVector<float> buffers[kScratchSlots];
  AlignedVector<float>& buf = buffers[slot];
  if (buf.size() < n) buf.resize(n);
  return {buf.data(), n};
}

}  // namespace kgc::vec
