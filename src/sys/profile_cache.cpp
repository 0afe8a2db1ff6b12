#include "sys/profile_cache.hpp"

#include <bit>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string_view>

#include "common/hash.hpp"

namespace coolpim::sys {

namespace {

constexpr char kMagic[8] = {'C', 'P', 'P', 'R', 'O', 'F', '0', '1'};

/// The fewest payload bytes a profile takes (empty name: length, three
/// 1-byte tags, vertex count, edge count, checksum, iteration count) and the
/// bytes of one iteration record (10 fixed 8-byte fields).  A count the
/// remaining bytes cannot hold is rejected before anything is sized by it.
constexpr std::size_t kMinProfileBytes = 4 + 3 + 4 + 3 * 8;
constexpr std::size_t kIterationBytes = 10 * 8;

std::uint64_t payload_hash(std::string_view payload) {
  HashStream h;
  h.bytes(payload.data(), payload.size());
  return h.digest();
}

// Little-endian byte serialization.  The cache is a local artifact (one
// machine, one build), but a fixed byte order keeps the payload hash and
// file layout well-defined rather than memcpy-of-struct dependent.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s);
  }

  [[nodiscard]] const std::string& buffer() const { return buf_; }

 private:
  std::string buf_;
};

class Reader {
 public:
  explicit Reader(std::string_view data) : data_{data} {}

  bool u8(std::uint8_t& v) {
    if (pos_ + 1 > data_.size()) return false;
    v = static_cast<std::uint8_t>(data_[pos_++]);
    return true;
  }
  bool u32(std::uint32_t& v) {
    if (pos_ + 4 > data_.size()) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(data_[pos_++])) << (8 * i);
    }
    return true;
  }
  bool u64(std::uint64_t& v) {
    if (pos_ + 8 > data_.size()) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(data_[pos_++])) << (8 * i);
    }
    return true;
  }
  bool f64(double& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    v = std::bit_cast<double>(bits);
    return true;
  }
  bool str(std::string& s) {
    std::uint32_t len = 0;
    if (!u32(len) || pos_ + len > data_.size()) return false;
    s.assign(data_.substr(pos_, len));
    pos_ += len;
    return true;
  }

  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  std::size_t pos_{0};
};

void write_profile(Writer& w, const graph::WorkloadProfile& p) {
  w.str(p.name);
  w.u8(static_cast<std::uint8_t>(p.driver));
  w.u8(static_cast<std::uint8_t>(p.parallelism));
  w.u8(static_cast<std::uint8_t>(p.atomic_kind));
  w.u32(p.graph_vertices);
  w.u64(p.graph_edges);
  w.u64(p.result_checksum);
  w.u64(p.iterations.size());
  for (const auto& it : p.iterations) {
    w.u64(it.scanned_vertices);
    w.u64(it.active_vertices);
    w.u64(it.edges_processed);
    w.u64(it.work_threads);
    w.u64(it.struct_scan_bytes);
    w.u64(it.property_reads);
    w.u64(it.property_writes);
    w.u64(it.atomic_ops);
    w.u64(it.compute_warp_instructions);
    w.f64(it.divergent_warp_ratio);
  }
}

bool read_profile(Reader& r, graph::WorkloadProfile& p) {
  std::uint8_t driver = 0, parallelism = 0, atomic = 0;
  std::uint64_t iters = 0;
  if (!r.str(p.name) || !r.u8(driver) || !r.u8(parallelism) || !r.u8(atomic) ||
      !r.u32(p.graph_vertices) || !r.u64(p.graph_edges) || !r.u64(p.result_checksum) ||
      !r.u64(iters)) {
    return false;
  }
  if (driver > 1 || parallelism > 1) return false;
  p.driver = static_cast<graph::Driver>(driver);
  p.parallelism = static_cast<graph::Parallelism>(parallelism);
  p.atomic_kind = static_cast<hmc::PimOpcode>(atomic);
  if (iters > r.remaining() / kIterationBytes) return false;
  p.iterations.resize(iters);
  for (auto& it : p.iterations) {
    if (!r.u64(it.scanned_vertices) || !r.u64(it.active_vertices) ||
        !r.u64(it.edges_processed) || !r.u64(it.work_threads) ||
        !r.u64(it.struct_scan_bytes) || !r.u64(it.property_reads) ||
        !r.u64(it.property_writes) || !r.u64(it.atomic_ops) ||
        !r.u64(it.compute_warp_instructions) || !r.f64(it.divergent_warp_ratio)) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::uint64_t profile_cache_key(unsigned scale, std::uint64_t seed, bool include_extended) {
  HashStream h;
  h.add(std::string_view{"coolpim-profile-cache"});
  h.add(kProfileFormatVersion);
  h.add(scale);
  h.add(seed);
  h.add(include_extended);
  return h.digest();
}

std::string profile_cache_file(const std::string& dir, std::uint64_t key) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(key));
  return (std::filesystem::path{dir} / ("profiles-" + std::string{hex} + ".bin")).string();
}

bool save_profiles(const std::string& dir, std::uint64_t key,
                   const std::vector<graph::WorkloadProfile>& profiles) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return false;

  Writer w;
  w.u32(kProfileFormatVersion);
  w.u64(key);
  w.u32(static_cast<std::uint32_t>(profiles.size()));
  for (const auto& p : profiles) write_profile(w, p);
  const std::uint64_t hash = payload_hash(w.buffer());

  const std::string path = profile_cache_file(dir, key);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(kMagic, sizeof(kMagic));
    out.write(w.buffer().data(), static_cast<std::streamsize>(w.buffer().size()));
    char trailer[8];
    for (int i = 0; i < 8; ++i) trailer[i] = static_cast<char>((hash >> (8 * i)) & 0xff);
    out.write(trailer, sizeof(trailer));
    if (!out) return false;
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

bool load_profiles(const std::string& dir, std::uint64_t key,
                   std::vector<graph::WorkloadProfile>& out) {
  out.clear();
  std::ifstream in(profile_cache_file(dir, key), std::ios::binary);
  if (!in) return false;
  std::string data{std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
  if (data.size() < sizeof(kMagic) + 8) return false;
  if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) return false;

  const std::string_view payload{data.data() + sizeof(kMagic),
                                 data.size() - sizeof(kMagic) - 8};
  std::uint64_t stored_hash = 0;
  for (int i = 0; i < 8; ++i) {
    stored_hash |= static_cast<std::uint64_t>(
                       static_cast<std::uint8_t>(data[data.size() - 8 + i]))
                   << (8 * i);
  }
  if (payload_hash(payload) != stored_hash) return false;

  Reader r{payload};
  std::uint32_t version = 0, count = 0;
  std::uint64_t stored_key = 0;
  if (!r.u32(version) || !r.u64(stored_key) || !r.u32(count)) return false;
  if (version != kProfileFormatVersion || stored_key != key) return false;
  if (count > r.remaining() / kMinProfileBytes) return false;

  out.resize(count);
  for (auto& p : out) {
    if (!read_profile(r, p)) {
      out.clear();
      return false;
    }
  }
  if (!r.exhausted()) {
    out.clear();
    return false;
  }
  return true;
}

}  // namespace coolpim::sys
