// Fleet tier: N independent GPU+HMC nodes under open-loop traffic.
//
// run_fleet() is a CoMeT-style interval simulation on a shared clock.  Each
// fleet epoch (FleetConfig::epoch_ms):
//
//   1. Dispatch (sequential, deterministic): every arrival that landed in
//      the epoch -- deferred requests first, then new ones, in order -- is
//      placed by the configured Balancer over a NodeView snapshot; a kDefer
//      pick (or a node refusing admission) defers the request, and a request
//      deferred more than max_defer_epochs times is shed.
//   2. Step (parallel): every node advances dt independently -- service,
//      thermal integration (RC, or the node's own stack grid), warning
//      tally -- sharded across runner::Pool.  Nodes share no mutable state,
//      so jobs=1 and jobs=N are bit-identical.
//   3. Observe: fleet counters/gauges update on the run's RunObserver and a
//      per-epoch counter mark is recorded every counter_mark_every epochs.
//
// Identity and seeding follow the runner contract (runner/experiment.hpp):
// fleet_key() hashes every behaviour-affecting config field; the arrival
// stream and each node's jitter Rng are seeded from (key, stream) /
// (key, node index), so a FleetConfig fully determines the run.
// docs/FLEET.md is the operator's manual for this tier.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/arrivals.hpp"
#include "fleet/balancer.hpp"
#include "fleet/node.hpp"
#include "fleet/request.hpp"
#include "hmc/fidelity_names.hpp"
#include "obs/observer.hpp"
#include "sys/metrics.hpp"
#include "thermal/stack_model.hpp"

namespace coolpim::fleet {

/// How node temperatures integrate each epoch (fleet step 2).
enum class ThermalFidelity {
  /// Historical first-order RC pull toward the load-weighted target
  /// (Node::step); cheapest, and the identity baseline for all goldens.
  kRc,
  /// Full 3-D stack grids: every node owns one thermal::StackModel and
  /// advances it inside its own epoch step (docs/FLEET.md).
  kGrid,
};

/// Fidelity names come from the shared vocabulary header (DESIGN.md
/// section 15), like the --hmc-backend tier names.
[[nodiscard]] constexpr std::string_view to_string(ThermalFidelity f) {
  switch (f) {
    case ThermalFidelity::kRc: return hmc::fidelity::kFleetRc;
    case ThermalFidelity::kGrid: return hmc::fidelity::kFleetGrid;
  }
  return "?";
}

/// Grid-fidelity sub-config.  Read -- and hashed into fleet_key() -- only
/// when FleetConfig::thermal == ThermalFidelity::kGrid, so kRc experiment
/// keys and goldens are byte-identical to before this knob existed.
struct GridThermalConfig {
  /// Stack geometry: hbm_stack_spec(dram_dies, grid_nx, grid_ny).
  std::size_t dram_dies{8};
  std::size_t grid_nx{8};
  std::size_t grid_ny{8};
  /// Logic-die watts injected per degC of the node's RC load signal
  /// (heat_weighted_ms / epoch_ms).  ~0.9 maps the RC steady target onto the
  /// grid's junction-to-ambient resistance for the default HBM geometry.
  double watts_per_c{0.9};
  /// Heat-capacity scaling (the interval-simulation compression trick):
  /// shrinks the stack's seconds-scale thermal constant to fleet-epoch
  /// scale so transients resolve within a run.
  double heat_capacity_scale{0.045};

  /// Stacks of kAdiMinDies DRAM dies and taller advance with the ADI kernel
  /// (StackModel::step_adi): that is the geometry the explicit stable dt
  /// collapses on.  Shorter stacks use the explicit step().
  static constexpr std::size_t kAdiMinDies = 16;
  [[nodiscard]] bool adi() const { return dram_dies >= kAdiMinDies; }

  void feed(HashStream& h) const {
    h.add(static_cast<std::uint64_t>(dram_dies));
    h.add(static_cast<std::uint64_t>(grid_nx));
    h.add(static_cast<std::uint64_t>(grid_ny));
    h.add(watts_per_c);
    h.add(heat_capacity_scale);
    // The kernel choice and its substep factor keep the slots they had as
    // config fields, so keys (and every seed drawn from them) are unchanged.
    h.add(static_cast<std::uint64_t>(adi() ? 1 : 0));
    h.add(thermal::kAdiDtFactor);
  }
};

struct FleetConfig {
  /// Node count (--fleet-nodes / COOLPIM_FLEET_NODES).
  std::size_t nodes{4};
  /// Template node; per-node ambients add the rack gradient below.
  NodeConfig node{};
  /// Linear rack ambient gradient: node i idles at
  /// node.ambient_c + rack_ambient_spread_c * i / (nodes - 1).  Models the
  /// hot end of a rack / a poorly-cooled chassis position.
  double rack_ambient_spread_c{0.0};

  /// Node thermal integration fidelity (default keeps the RC model and all
  /// existing keys/goldens); grid settings apply only under kGrid.
  ThermalFidelity thermal{ThermalFidelity::kRc};
  GridThermalConfig grid{};

  /// Request classes (must be non-empty) and their Poisson mix weights
  /// (empty = uniform; ignored for trace replay).
  std::vector<ServiceProfile> profiles{synthetic_profiles()};
  std::vector<double> mix{};

  /// Balancer by registered name (--balancer / COOLPIM_BALANCER).
  std::string balancer{"thermal-aware"};
  BalancerConfig balancer_cfg{};

  /// Open-loop arrival process: Poisson at arrival_rate_per_s over
  /// duration_ms, unless trace_path names a replay CSV (fleet clock then
  /// still runs to duration_ms).
  double arrival_rate_per_s{4000.0};
  double duration_ms{1000.0};
  std::string trace_path{};

  double epoch_ms{1.0};
  std::uint32_t max_defer_epochs{8};

  /// Experiment seed; arrival and per-node streams derive from
  /// fleet_key(*this) ^ seed material, never from scheduling.
  std::uint64_t seed{7};
  /// Node-stepping parallelism; 0 = runner::Pool::default_jobs().
  unsigned jobs{0};
  /// Counter-mark cadence in epochs (0 = only the end-of-run snapshot).
  std::uint32_t counter_mark_every{0};
  /// Observability sink (excluded from fleet_key, read-only: results are
  /// bit-identical with or without it).
  obs::RunObserver* observer{nullptr};

  void validate() const;
};

struct FleetResult {
  std::vector<NodeSummary> nodes;

  std::uint64_t arrived{0};
  std::uint64_t served{0};
  std::uint64_t shed{0};
  /// Defer *events* (one request deferred twice counts twice).
  std::uint64_t deferrals{0};
  /// Requests still queued/in service when the clock expired.
  std::uint64_t in_flight{0};

  double duration_ms{0.0};
  double p50_latency_ms{0.0};
  double p99_latency_ms{0.0};
  double max_latency_ms{0.0};
  double served_pim_ops{0.0};
  double max_node_peak_c{0.0};
  std::uint64_t total_warnings{0};

  [[nodiscard]] double agg_op_per_ns() const {
    return duration_ms > 0.0 ? served_pim_ops / (duration_ms * 1e6) : 0.0;
  }
  /// Canonical one-line-per-node serialization -- the object the jobs=1 vs
  /// jobs=8 bit-identity tests and bench gate compare byte-for-byte.
  [[nodiscard]] std::string node_summary_csv() const;
};

/// Stable identity hash over every behaviour-affecting field (observer and
/// jobs excluded -- they must not change results).
[[nodiscard]] std::uint64_t fleet_key(const FleetConfig& cfg);

/// Run the interval simulation to completion.
[[nodiscard]] FleetResult run_fleet(const FleetConfig& cfg);

/// Derive service profiles from measured single-node runs: service time =
/// exec_time, heat = peak DRAM rise above `idle_c`, ops = pim_ops.  The runs
/// should all use the node policy the fleet models (docs/FLEET.md).
[[nodiscard]] std::vector<ServiceProfile> profiles_from_runs(
    const std::vector<sys::RunResult>& runs, double idle_c);

}  // namespace coolpim::fleet
