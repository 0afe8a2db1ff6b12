// Set-associative cache model with exact LRU replacement.
//
// Used functionally: CacheHitModel (characterize.hpp) replays uniform-random
// property accesses through an L2 instance to measure its hit rate, and the
// detailed GPU micro-model uses L1 instances directly.  PIM-target data is
// allocated in an uncacheable region (GraphPIM policy), so atomics never
// enter these caches.
//
// Tag store: each set is one row of its ways' 32-bit tags in recency order,
// most recently used first, with empty ways at the tail.  An access finds the
// slot holding its tag -- or, on a miss, the last slot, which holds the LRU
// line or nothing -- shifts the slots in front of it down by one and writes
// the tag to slot 0.  That is exact LRU.  A 16-way row is one 64-byte line,
// the row update is branch-free vector code, and replay_uniform() runs its
// whole loop as one runtime-dispatched AVX2 clone (docs/PERFORMANCE.md
// section 9).
#pragma once

#include <cstdint>
#include <memory>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace coolpim::gpu {

class Cache {
 public:
  /// Throws ConfigError unless ways and line size are positive, the line size
  /// is a power of two and the capacity is a power-of-two number of sets.
  Cache(std::size_t capacity_bytes, std::size_t ways, std::size_t line_bytes);

  /// Access a byte address; returns true on hit.  Allocate-on-miss.  Throws
  /// ConfigError naming the address when its tag does not fit 32 bits.
  bool access(std::uint64_t address);

  /// `n` accesses to rng.next_below(bound), drawn and applied in order just
  /// as n calls of access() would; returns the hits among them, which also
  /// count in hits()/misses().  Allocates nothing.  Throws ConfigError naming
  /// the bound when the tag of address bound - 1 does not fit 32 bits.
  std::uint64_t replay_uniform(Rng& rng, std::uint64_t bound, std::uint64_t n);

  /// Probe without updating state.  Throws like access().
  [[nodiscard]] bool contains(std::uint64_t address) const;

  void flush();

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] double hit_rate() const {
    const auto total = hits_ + misses_;
    return total ? static_cast<double>(hits_) / static_cast<double>(total) : 0.0;
  }
  void reset_stats() { hits_ = misses_ = 0; }

  [[nodiscard]] std::size_t num_sets() const { return sets_; }
  [[nodiscard]] std::size_t ways() const { return ways_; }
  [[nodiscard]] std::size_t line_bytes() const { return line_; }

 private:
  struct FreeStore {
    void operator()(void* store) const noexcept;
  };

  /// Index in store_, in 32-byte vectors, of the row of `address`'s set.
  [[nodiscard]] std::size_t row_of(std::uint64_t address) const {
    return row_vecs_ * (1 + ((address >> line_shift_) & (sets_ - 1)));
  }

  std::size_t sets_;
  std::size_t ways_;
  std::size_t line_;
  std::size_t row_vecs_;  // 32-byte vectors of eight tag slots per row
  unsigned line_shift_{0};
  unsigned tag_shift_{0};
  // One 64-byte-aligned block of 32-byte vectors: row_vecs_ numbering the
  // slots of a row (padding lanes past ways_ stay empty), then sets_ rows.
  std::unique_ptr<void, FreeStore> store_;
  std::uint64_t hits_{0};
  std::uint64_t misses_{0};
};

}  // namespace coolpim::gpu
