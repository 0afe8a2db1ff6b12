// Workload instrumentation: what a GPU kernel iteration *does*, counted by
// the functional graph algorithms.
//
// The GPU timing model consumes these logical counts -- it converts property
// accesses into memory transactions through its cache model, schedules the
// work threads onto SMs, and turns atomic operations into PIM offloads or
// host atomics depending on the scenario.  Keeping the counts logical (not
// pre-baked into bytes) keeps the cache model in one place.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hmc/pim.hpp"

namespace coolpim::graph {

enum class Driver : std::uint8_t { kTopology, kData };
enum class Parallelism : std::uint8_t { kThreadCentric, kWarpCentric };

/// One kernel launch (= one algorithm iteration / level / round).
struct IterationProfile {
  std::uint64_t scanned_vertices{0};   // vertices examined by the kernel
  std::uint64_t active_vertices{0};    // vertices that had work
  std::uint64_t edges_processed{0};
  std::uint64_t work_threads{0};       // CUDA threads the launch needs

  // Memory behaviour (logical counts; cache model applied downstream).
  std::uint64_t struct_scan_bytes{0};  // streaming CSR reads (row_ptr/col_idx/weights)
  std::uint64_t property_reads{0};     // random 4-8 byte property loads
  std::uint64_t property_writes{0};    // random non-atomic property stores
  std::uint64_t atomic_ops{0};         // PIM-offloadable atomic RMWs

  // Execution behaviour.
  std::uint64_t compute_warp_instructions{0};  // non-memory warp instructions
  double divergent_warp_ratio{0.0};            // fraction of warps that diverge

  bool operator==(const IterationProfile&) const = default;
};

/// A complete workload: sequence of kernel launches plus identity metadata.
struct WorkloadProfile {
  std::string name;
  Driver driver{Driver::kTopology};
  Parallelism parallelism{Parallelism::kThreadCentric};
  hmc::PimOpcode atomic_kind{hmc::PimOpcode::kSignedAdd8};
  /// Size of the graph the profile was captured on (cache-footprint input
  /// for the GPU characterizer).
  std::uint32_t graph_vertices{0};
  std::uint64_t graph_edges{0};
  std::vector<IterationProfile> iterations;
  /// Checksum of the functional result (levels/distances/ranks), so tests can
  /// verify every variant computes the same answer.
  std::uint64_t result_checksum{0};

  bool operator==(const WorkloadProfile&) const = default;

  [[nodiscard]] std::uint64_t total_edges() const {
    std::uint64_t s = 0;
    for (const auto& it : iterations) s += it.edges_processed;
    return s;
  }
  [[nodiscard]] std::uint64_t total_atomics() const {
    std::uint64_t s = 0;
    for (const auto& it : iterations) s += it.atomic_ops;
    return s;
  }
  [[nodiscard]] std::uint64_t total_warp_instructions() const {
    std::uint64_t s = 0;
    for (const auto& it : iterations) s += it.compute_warp_instructions;
    return s;
  }

  /// PIM instruction intensity: atomics per warp instruction (Eq. 1 input).
  [[nodiscard]] double pim_intensity() const {
    const auto instr = total_warp_instructions();
    return instr ? static_cast<double>(total_atomics()) / static_cast<double>(instr) : 0.0;
  }

  /// Work-weighted average divergent-warp ratio (Eq. 1 input).
  [[nodiscard]] double divergence_ratio() const {
    double num = 0.0, den = 0.0;
    for (const auto& it : iterations) {
      const auto w = static_cast<double>(it.work_threads);
      num += it.divergent_warp_ratio * w;
      den += w;
    }
    return den > 0.0 ? num / den : 0.0;
  }
};

}  // namespace coolpim::graph
