// Copyright 2026 The ONEX Reproduction Authors.
// Lane packs and the run-time kernel dispatch shared by the batch
// kernels (DtwEarlyAbandonBatch, SquaredEuclideanBatch). A batch kernel
// scores one candidate per vector lane, so independent chains of
// latency-bound adds overlap; every lane runs the scalar kernel's exact
// sequence of operations (never a fused multiply-add), so its result is
// the scalar result bit for bit. The AVX2 path is chosen once, at run
// time, when the CPU reports it; portable 16-byte lanes otherwise.

#ifndef ONEX_DISTANCE_LANES_H_
#define ONEX_DISTANCE_LANES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

// GCC warns that 32-byte vector arguments change the ABI of functions
// compiled without AVX. The vector helpers below are all inlined into
// their callers and never cross a call boundary, so no ABI is involved.
// (GCC reports it at the end of the file, so an including file opts
// out as a whole.)
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wpsabi"
#endif

namespace onex {

/// The batch kernels: portable 16-byte lanes (SSE2 on x86-64, NEON on
/// AArch64, scalar pairs elsewhere) or AVX2. Exposed so tests and
/// benches can run each against the scalar kernels.
enum class LaneKernel { kPortable, kAvx2 };

/// Whether the CPU reports AVX2; checked once.
inline bool CpuHasAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has;
#else
  return false;
#endif
}

/// Whether this build and CPU can run `kernel` (kPortable always can).
inline bool LaneKernelSupported(LaneKernel kernel) {
  return kernel == LaneKernel::kPortable || CpuHasAvx2();
}

/// The kernel the batch entry points use: AVX2 when supported.
inline LaneKernel DefaultLaneKernel() {
  return CpuHasAvx2() ? LaneKernel::kAvx2 : LaneKernel::kPortable;
}

namespace lanes {

// Lane packs: two doubles or four. `V` is the register type; buffers
// are plain doubles read and written through `Mem`, which may alias
// double and needs no alignment (a vector type's alignment differs
// between the AVX2 and the default target of one build).
struct Pack2 {
  using V = double __attribute__((vector_size(16)));
  using Mem = double __attribute__((vector_size(16), aligned(8), may_alias));
};
struct Pack4 {
  using V = double __attribute__((vector_size(32)));
  using Mem = double __attribute__((vector_size(32), aligned(8), may_alias));
};

template <class P>
inline constexpr size_t kWidth = sizeof(typename P::V) / sizeof(double);

template <class P>
[[gnu::always_inline]] inline typename P::V Load(const double* p) {
  return *reinterpret_cast<const typename P::Mem*>(p);
}

template <class P>
[[gnu::always_inline]] inline void Store(double* p, const typename P::V& v) {
  *reinterpret_cast<typename P::Mem*>(p) = v;
}

template <class P>
[[gnu::always_inline]] inline typename P::V Broadcast(double x) {
  typename P::V v;
  for (size_t l = 0; l < kWidth<P>; ++l) v[l] = x;
  return v;
}

/// `count` doubles of `storage`, starting on a 32-byte boundary.
inline double* Aligned(std::vector<double>& storage, size_t count) {
  storage.resize(count + 4);
  const auto misalign = reinterpret_cast<uintptr_t>(storage.data()) % 32;
  return storage.data() + (32 - misalign) % 32 / sizeof(double);
}

}  // namespace lanes
}  // namespace onex

#endif  // ONEX_DISTANCE_LANES_H_
