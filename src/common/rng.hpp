// Deterministic pseudo-random number generation.
//
// Every stochastic element of the simulator (graph generation, address
// hashing jitter, workload sampling) draws from an explicitly seeded Xoshiro
// generator so that runs are bit-reproducible across platforms -- std::mt19937
// distributions are not guaranteed identical across standard libraries, so we
// implement the distributions we need ourselves.
//
// RngJump moves a generator ahead by any number of draws in about a
// microsecond, so a long stream can be cut into chunks that run in parallel
// and still consume exactly the draws a sequential walk would.
// graph::make_rmat samples its edges that way, four chunks per vector
// through Rng::step().
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/error.hpp"

namespace coolpim {

/// SplitMix64: used to expand a single user seed into the four words of
/// Xoshiro state.  Reference: Sebastiano Vigna, public domain.
class SplitMix64 {
 public:
  constexpr explicit SplitMix64(std::uint64_t seed) : state_{seed} {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

class RngJump;

/// Xoshiro256** -- fast, high-quality, 2^256-1 period.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed'c001'91a1'0000ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    SplitMix64 sm{seed};
    for (auto& w : s_) w = sm.next();
  }

  std::uint64_t next_u64() {
    std::uint64_t result = 0;
    step(s_[0], s_[1], s_[2], s_[3], result);
    return result;
  }

  /// The four state words.  With step() they let several generators run side
  /// by side in vector lanes and stay in step with next_u64().
  [[nodiscard]] const std::array<std::uint64_t, 4>& state() const { return s_; }

  /// One xoshiro256** draw on state words of any type with the integer
  /// operators: std::uint64_t, or a GCC vector of them that steps one
  /// generator per lane.  Advances the words and stores the output in `out`
  /// (by reference: a 32-byte vector passed by value changes the ABI between
  /// AVX2 and baseline clones).  x * 5 and x * 9 are spelled (x << 2) + x and
  /// (x << 3) + x, equal mod 2^64, so 64-bit vector lanes need no multiply
  /// (AVX2 has none).
  template <class Word>
  static constexpr void step(Word& s0, Word& s1, Word& s2, Word& s3, Word& out) {
    const Word x = (s1 << 2) + s1;
    const Word r = (x << 7) | (x >> 57);  // rotl 7
    out = (r << 3) + r;
    const Word t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = (s3 << 45) | (s3 >> 19);  // rotl 45
  }

  /// Move the state ahead by the draws `jump` was built for, exactly as that
  /// many next_u64() calls would.  The normal cached by next_normal() is not
  /// touched.
  void advance(const RngJump& jump);

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t next_below(std::uint64_t bound) {
    COOLPIM_ASSERT(bound > 0);
    // 128-bit multiply-shift rejection sampling.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi) {
    COOLPIM_ASSERT(lo <= hi);
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next_below(span));
  }

  /// Bernoulli trial.
  bool next_bool(double p_true) { return next_double() < p_true; }

  /// Standard normal via Marsaglia polar method (deterministic given state).
  double next_normal() {
    if (have_cached_) {
      have_cached_ = false;
      return cached_;
    }
    double u, v, s;
    do {
      u = 2.0 * next_double() - 1.0;
      v = 2.0 * next_double() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double mul = std::sqrt(-2.0 * std::log(s) / s);
    cached_ = v * mul;
    have_cached_ = true;
    return u * mul;
  }

  /// Fork a statistically independent child stream, e.g. one per SM.
  Rng fork(std::uint64_t stream_id) {
    Rng child{next_u64() ^ (stream_id * 0x9e3779b97f4a7c15ULL)};
    return child;
  }

 private:
  friend class RngJump;
  using State = std::array<std::uint64_t, 4>;

  /// The xoshiro256 state update, linear over GF(2)^256: XORs, one shift and
  /// one rotation.
  static constexpr void transition(State& s) {
    std::uint64_t unused = 0;
    step(s[0], s[1], s[2], s[3], unused);
  }

  State s_{};
  double cached_{0.0};
  bool have_cached_{false};
};

/// Jump-ahead by a fixed number of draws.  Rng's state transition T is a
/// 256x256 matrix over GF(2), so k draws are the product T^k applied to the
/// state.  The constructor builds T^k by square-and-multiply (about 1 ms for
/// 2^20 draws); Rng::advance() then costs one matrix-vector product, under
/// a microsecond.  The matrix is stored as its 256 columns, 8 KiB.  `draws`
/// may be anything below 2^128; 2^128 - 1 followed by one next_u64() is
/// Vigna's jump().
class RngJump {
 public:
  explicit RngJump(__uint128_t draws) {
    Matrix base{};
    for (unsigned i = 0; i < kBits; ++i) {
      base[i] = unit(i);
      Rng::transition(base[i]);
    }
    for (unsigned i = 0; i < kBits; ++i) power_[i] = unit(i);
    while (draws != 0) {
      if ((draws & 1) != 0) power_ = product(power_, base);
      draws >>= 1;
      if (draws != 0) base = product(base, base);
    }
  }

 private:
  friend class Rng;
  using State = Rng::State;
  static constexpr unsigned kBits = 256;
  using Matrix = std::array<State, kBits>;  // column i = image of state bit i

  static State unit(unsigned bit) {
    State s{};
    s[bit / 64] = std::uint64_t{1} << (bit % 64);
    return s;
  }

  /// m * v: the XOR of the columns selected by v's set bits.
  static State apply(const Matrix& m, const State& v) {
    State r{};
    for (unsigned w = 0; w < 4; ++w) {
      for (std::uint64_t bits = v[w]; bits != 0; bits &= bits - 1) {
        const State& col = m[w * 64 + static_cast<unsigned>(std::countr_zero(bits))];
        for (unsigned k = 0; k < 4; ++k) r[k] ^= col[k];
      }
    }
    return r;
  }

  static Matrix product(const Matrix& a, const Matrix& b) {
    Matrix c{};
    for (unsigned j = 0; j < kBits; ++j) c[j] = apply(a, b[j]);
    return c;
  }

  Matrix power_{};
};

inline void Rng::advance(const RngJump& jump) { s_ = RngJump::apply(jump.power_, s_); }

}  // namespace coolpim
