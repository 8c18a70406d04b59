// Portable SIMD layer for the batch-evaluation hot paths (body field
// blocks, codec filters).
//
// The types here are deliberately NOT intrinsics wrappers: f32xN is a
// fixed-width lane vector (4 or 8 lanes) backed by the GCC/Clang vector
// extension (__attribute__((vector_size))), whose operators lower
// directly to the ISA the translation unit is compiled for — no reliance
// on the auto-vectorizer keeping lane arrays in registers. The build
// already requires GCC or Clang (GNU flags, __builtin_cpu_supports), so
// there is no fallback for other compilers.
// Kernels are written once against f32xN and compiled twice — a baseline
// TU (SSE2 on x86-64, NEON on aarch64, plain scalar elsewhere) and, on
// x86, an AVX2 TU — with a one-time runtime dispatch picking the widest
// kernel the CPU supports (see body::bodyBatchBackend).
//
// Determinism contract: every f32xN operation is a lane-wise IEEE-754
// single operation (add/sub/mul/div/sqrt/min/max/compare/blend), the
// project builds with -ffp-contract=off, and no kernel TU enables FMA —
// so a kernel's per-lane results are bit-identical to running the same
// scalar expression sequence per lane, on every backend. This is what
// lets the sparse reconstruction keep its dense-extraction byte-identity
// guarantee while the inner loop runs 8 lanes wide.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <cmath>

namespace semholo::geom::simd {

// ---- Backend identification ---------------------------------------------

enum class Backend : std::uint8_t { Scalar, Avx2, Neon };

inline const char* backendName(Backend b) {
    switch (b) {
        case Backend::Avx2: return "avx2";
        case Backend::Neon: return "neon";
        case Backend::Scalar: return "scalar";
    }
    return "unknown";
}

// True when the CPU can execute AVX2 kernels (x86 only; false elsewhere).
inline bool cpuHasAvx2() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

// SEMHOLO_SIMD=scalar forces every dispatch to the portable baseline
// kernel — the knob CI uses to keep the fallback path exercised on
// hardware that would otherwise always take the wide kernel.
inline bool forcedScalar() noexcept {
    static const bool forced = [] {
        const char* v = std::getenv("SEMHOLO_SIMD");
        return v != nullptr && std::strcmp(v, "scalar") == 0;
    }();
    return forced;
}

// The backend the *baseline* TU effectively runs with: the compiler
// lowers the lane loops to whatever the base ISA offers.
inline Backend baselineBackend() noexcept {
#if defined(__aarch64__) || defined(__ARM_NEON)
    return Backend::Neon;
#else
    return Backend::Scalar;
#endif
}

// ---- f32xN / b32xN -------------------------------------------------------

#if !defined(__GNUC__) && !defined(__clang__)
#error "semholo/geometry/simd.hpp needs the GCC/Clang vector extension"
#endif

// Vector values only cross the (always-inlined) helper boundaries
// below, never a real ABI boundary, so the "vector return without
// <ISA> enabled changes the ABI" note on narrow-ISA TUs is noise.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"

// vector_size must be a non-dependent constant, so the widths get
// explicit specializations instead of a computed size.
template <int N>
struct VecStorage;
template <>
struct VecStorage<4> {
    typedef float F __attribute__((vector_size(16)));
    typedef std::int32_t I __attribute__((vector_size(16)));
    // Braced init is the spelling the compiler turns into one broadcast
    // instruction; a lane-store loop degrades to N inserts.
    static F splat(float v) { return F{v, v, v, v}; }
};
template <>
struct VecStorage<8> {
    typedef float F __attribute__((vector_size(32)));
    typedef std::int32_t I __attribute__((vector_size(32)));
    static F splat(float v) { return F{v, v, v, v, v, v, v, v}; }
};

// Width-agnostic float lanes on the GNU vector extension: 'lane' is a
// true vector value, so +,-,*,/ and the comparisons below are single
// instructions at the TU's ISA width, while lane[i] subscripting still
// reads/writes individual lanes. Every operation is the lane-wise
// IEEE-754 single op the scalar expression would run.
template <int N>
struct f32xN {
    static_assert(N > 0 && (N & (N - 1)) == 0, "lane count must be a power of two");
    typedef typename VecStorage<N>::F V;
    V lane;

    static f32xN load(const float* p) {
        f32xN r;
        std::memcpy(&r.lane, p, sizeof r.lane);
        return r;
    }
    static f32xN broadcast(float v) { return {VecStorage<N>::splat(v)}; }
    void store(float* p) const { std::memcpy(p, &lane, sizeof lane); }

    f32xN operator+(f32xN o) const { return {lane + o.lane}; }
    f32xN operator-(f32xN o) const { return {lane - o.lane}; }
    f32xN operator*(f32xN o) const { return {lane * o.lane}; }
    f32xN operator/(f32xN o) const { return {lane / o.lane}; }
};

// Lane-wise boolean mask companion (all-ones / all-zero int lanes).
template <int N>
struct b32xN {
    typedef typename VecStorage<N>::I V;
    V lane;

    bool any() const {
        std::int32_t acc = 0;
        for (int i = 0; i < N; ++i) acc |= lane[i];
        return acc != 0;
    }
    bool all() const {
        std::int32_t acc = -1;
        for (int i = 0; i < N; ++i) acc &= lane[i];
        return acc == -1;
    }
    int count() const {
        // Lanes are all-ones (-1) or zero, so the lane sum is -count —
        // a plain reduction the compiler lowers without per-lane tests.
        std::int32_t acc = 0;
        for (int i = 0; i < N; ++i) acc += lane[i];
        return -acc;
    }
    b32xN operator|(b32xN o) const { return {lane | o.lane}; }
    b32xN operator&(b32xN o) const { return {lane & o.lane}; }
    b32xN operator~() const { return {~lane}; }
};

// min/max keep the exact scalar comparison semantics (a < b ? a : b),
// which is also precisely x86 minps/maxps and NEON fminnm-free vmin.
template <int N>
inline f32xN<N> min(f32xN<N> a, f32xN<N> b) {
    return {a.lane < b.lane ? a.lane : b.lane};
}
template <int N>
inline f32xN<N> max(f32xN<N> a, f32xN<N> b) {
    return {a.lane > b.lane ? a.lane : b.lane};
}
template <int N>
inline f32xN<N> sqrt(f32xN<N> a) {
    f32xN<N> r;
    for (int i = 0; i < N; ++i) r.lane[i] = std::sqrt(a.lane[i]);
    return r;
}
// clamp to [lo, hi] with the same comparison sequence as geom::clamp
// (v < lo ? lo : (v > hi ? hi : v)).
template <int N>
inline f32xN<N> clamp(f32xN<N> v, f32xN<N> lo, f32xN<N> hi) {
    return {v.lane < lo.lane ? lo.lane
                             : (v.lane > hi.lane ? hi.lane : v.lane)};
}

template <int N>
inline b32xN<N> cmpLt(f32xN<N> a, f32xN<N> b) {
    return {a.lane < b.lane};
}
template <int N>
inline b32xN<N> cmpGt(f32xN<N> a, f32xN<N> b) {
    return {a.lane > b.lane};
}

// Lane blend: mask ? a : b.
template <int N>
inline f32xN<N> select(b32xN<N> mask, f32xN<N> a, f32xN<N> b) {
    return {mask.lane ? a.lane : b.lane};
}

#pragma GCC diagnostic pop

// ---- Bit-matrix transpose (codec bitshuffle kernel) ----------------------

// Transpose an 8x8 bit matrix held row-major in a 64-bit word: input bit
// (row r, column c) = bit (8*r + c) moves to (8*c + r). Hacker's Delight
// 7-2; three swap rounds instead of 64 single-bit probes, which is what
// takes the bitshuffle filter from tens of MB/s to GB/s.
inline std::uint64_t bitTranspose8x8(std::uint64_t x) noexcept {
    std::uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAull;
    x = x ^ t ^ (t << 7);
    t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCull;
    x = x ^ t ^ (t << 14);
    t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ull;
    x = x ^ t ^ (t << 28);
    return x;
}

}  // namespace semholo::geom::simd
