#include "gpu/cache.hpp"

#include <bit>
#include <limits>
#include <new>
#include <string>

#include "common/target_clones.hpp"

namespace coolpim::gpu {
namespace {

/// Eight 32-bit tag slots.  Tags compare as raw bits, so the lanes are
/// signed: a comparison yields a mask of the same type.
typedef std::int32_t Lanes __attribute__((vector_size(32)));

constexpr std::size_t kLanes = 8;
constexpr std::align_val_t kStoreAlign{64};
/// An empty way.  Tags are below it, so it never matches one.
constexpr std::int32_t kEmpty = -1;
/// The slot number of a padding lane: past every real slot, so it always
/// keeps its (empty) tag.
constexpr std::int32_t kPadSlot = std::numeric_limits<std::int32_t>::max();
/// Tags must lie below it: 32 bits, with kEmpty's all-ones pattern reserved.
constexpr std::uint64_t kTagLimit = 0xffff'ffffULL;

Lanes* lanes(void* store) { return static_cast<Lanes*>(store); }

/// `address`'s tag as a lane; ConfigError naming the address when it does
/// not fit.
std::int32_t lane_tag(std::uint64_t address, unsigned tag_shift) {
  const std::uint64_t tag = address >> tag_shift;
  COOLPIM_REQUIRE(tag < kTagLimit,
                  "address " + std::to_string(address) + " has a tag wider than 32 bits");
  return static_cast<std::int32_t>(tag);
}

/// One access to a row of `vecs` tag vectors, most recent first; returns
/// whether `tag` was in it.  `slot` numbers the lanes of a row, padding lanes
/// past every real slot.  With p the slot holding the tag -- the minimum over
/// the matching lanes, or vecs * 8 on a miss -- slots up to p take their
/// predecessor (slot 0 the tag) and the rest keep theirs: on a miss the LRU
/// slot drops out and padding keeps its empty tags.  Branch-free; kVecs > 0
/// fixes the row length at compile time.
template <std::size_t kVecs>
[[gnu::always_inline]] inline bool touch_row(Lanes* row, std::size_t vecs, const Lanes* slot,
                                             std::int32_t tag) {
  const std::size_t n = kVecs != 0 ? kVecs : vecs;
  const Lanes t = Lanes{} + tag;
  const Lanes miss = Lanes{} + static_cast<std::int32_t>(n * kLanes);
  Lanes p = miss;
  for (std::size_t v = 0; v < n; ++v) {
    const Lanes at = row[v] == t ? slot[v] : miss;
    p = at < p ? at : p;
  }
  // Horizontal minimum: afterwards every lane holds p.
  Lanes q = __builtin_shufflevector(p, p, 4, 5, 6, 7, 0, 1, 2, 3);
  p = q < p ? q : p;
  q = __builtin_shufflevector(p, p, 2, 3, 0, 1, 6, 7, 4, 5);
  p = q < p ? q : p;
  q = __builtin_shufflevector(p, p, 1, 0, 3, 2, 5, 4, 7, 6);
  p = q < p ? q : p;
  Lanes prev = t;  // the vector before; its lane 7 shifts into lane 0
  for (std::size_t v = 0; v < n; ++v) {
    const Lanes r = row[v];
    row[v] = slot[v] > p ? r : __builtin_shufflevector(prev, r, 7, 8, 9, 10, 11, 12, 13, 14);
    prev = r;
  }
  return p[0] != miss[0];
}

/// Where replay() finds a cache's rows.
struct RowMap {
  Lanes* rows;
  const Lanes* slot;
  std::size_t vecs;
  unsigned line_shift;
  std::uint64_t set_mask;
  unsigned tag_shift;
};

template <std::size_t kVecs>
[[gnu::always_inline]] inline std::uint64_t replay_rows(const RowMap& m, Rng& rng,
                                                        std::uint64_t bound, std::uint64_t n) {
  const std::size_t stride = kVecs != 0 ? kVecs : m.vecs;
  Rng local = rng;  // a copy keeps the generator state in registers
  std::uint64_t hits = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t address = local.next_below(bound);
    Lanes* row = m.rows + ((address >> m.line_shift) & m.set_mask) * stride;
    hits += touch_row<kVecs>(row, m.vecs, m.slot,
                             static_cast<std::int32_t>(address >> m.tag_shift));
  }
  rng = local;
  return hits;
}

/// The uniform replay as one dispatched unit -- draw, row update and hit
/// count inline -- since a dispatched call per access costs more than the
/// update.  Two-vector rows (the 9- to 16-way L2) get their length at
/// compile time.
COOLPIM_STENCIL_CLONES
std::uint64_t replay(RowMap m, Rng& rng, std::uint64_t bound, std::uint64_t n) {
  if (m.vecs == 2) return replay_rows<2>(m, rng, bound, n);
  return replay_rows<0>(m, rng, bound, n);
}

}  // namespace

void Cache::FreeStore::operator()(void* store) const noexcept {
  ::operator delete(store, kStoreAlign);
}

Cache::Cache(std::size_t capacity_bytes, std::size_t ways, std::size_t line_bytes)
    : sets_{0}, ways_{ways}, line_{line_bytes}, row_vecs_{(ways + kLanes - 1) / kLanes} {
  COOLPIM_REQUIRE(ways > 0 && line_bytes > 0, "cache geometry must be positive");
  COOLPIM_REQUIRE(std::has_single_bit(line_bytes), "line size must be a power of two");
  COOLPIM_REQUIRE(capacity_bytes % (ways * line_bytes) == 0,
                  "capacity must be a whole number of sets");
  sets_ = capacity_bytes / (ways * line_bytes);
  COOLPIM_REQUIRE(sets_ > 0, "cache must hold at least one set");
  COOLPIM_REQUIRE(std::has_single_bit(sets_), "set count must be a power of two");
  line_shift_ = static_cast<unsigned>(std::countr_zero(line_));
  tag_shift_ = line_shift_ + static_cast<unsigned>(std::countr_zero(sets_));

  store_.reset(::operator new(row_vecs_ * (1 + sets_) * sizeof(Lanes), kStoreAlign));
  Lanes* const slot = lanes(store_.get());
  for (std::size_t v = 0; v < row_vecs_; ++v) {
    for (std::size_t i = 0; i < kLanes; ++i) {
      const std::size_t s = v * kLanes + i;
      slot[v][i] = s < ways_ ? static_cast<std::int32_t>(s) : kPadSlot;
    }
  }
  flush();
}

bool Cache::access(std::uint64_t address) {
  const std::int32_t tag = lane_tag(address, tag_shift_);
  Lanes* const slot = lanes(store_.get());
  const bool hit = touch_row<0>(slot + row_of(address), row_vecs_, slot, tag);
  ++(hit ? hits_ : misses_);
  return hit;
}

std::uint64_t Cache::replay_uniform(Rng& rng, std::uint64_t bound, std::uint64_t n) {
  COOLPIM_REQUIRE(bound > 0, "replay bound must be positive");
  COOLPIM_REQUIRE(((bound - 1) >> tag_shift_) < kTagLimit,
                  "footprint of " + std::to_string(bound) +
                      " bytes has tags wider than 32 bits");
  Lanes* const slot = lanes(store_.get());
  const std::uint64_t hits =
      replay({slot + row_vecs_, slot, row_vecs_, line_shift_, sets_ - 1, tag_shift_}, rng, bound, n);
  hits_ += hits;
  misses_ += n - hits;
  return hits;
}

bool Cache::contains(std::uint64_t address) const {
  const std::int32_t tag = lane_tag(address, tag_shift_);
  const Lanes* const row = lanes(store_.get()) + row_of(address);
  for (std::size_t v = 0; v < row_vecs_; ++v) {
    for (std::size_t i = 0; i < kLanes; ++i) {
      if (row[v][i] == tag) return true;
    }
  }
  return false;
}

void Cache::flush() {
  Lanes* const rows = lanes(store_.get()) + row_vecs_;
  for (std::size_t v = 0; v < sets_ * row_vecs_; ++v) rows[v] = Lanes{} + kEmpty;
}

}  // namespace coolpim::gpu
