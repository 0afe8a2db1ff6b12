// One fleet node: a GPU+HMC system reduced to its interval behaviour.
//
// A Node owns a bounded FIFO request queue and a thermal state: first-order
// RC by default, or its own 3-D stack grid (NodeStack).  Each fleet epoch it
// serves queued requests at a temperature-dependent speed (DRAM derates
// above the 85 degC normal limit, exactly as the single-node
// `hmc::ThermalPolicy` does), integrates its peak-DRAM temperature toward
// `ambient + busy_fraction * heat(workload)` -- with time constant tau, or
// through the stack -- and tallies ERRSTAT-style warnings while hot.  The
// node's throttling policy enters through its service profiles: they are
// derived from single-node runs *under that policy* (see fleet.hpp), so a
// fleet of hw-dynt nodes inherits HW-DynT's thermal envelope per node.
//
// Determinism contract: step() touches only this node's state, so the fleet
// loop can fan nodes out across runner::Pool with bit-identical results at
// any --jobs.  The only stochastic element -- per-request service jitter --
// draws from the node's own Rng, seeded from (fleet experiment key, node
// index) at construction.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "fleet/request.hpp"
#include "thermal/stack_model.hpp"

namespace coolpim::fleet {

struct NodeConfig {
  /// Idle peak-DRAM temperature of this node (degC).  The fleet layer bakes
  /// the rack ambient gradient in here, so a hot rack position is simply a
  /// node with a higher ambient.
  double ambient_c{35.0};
  /// First-order thermal time constant (ms) of the stack's response to a
  /// change in offered load.
  double tau_ms{50.0};
  /// DRAM derate threshold (degC): at or above it, service speed multiplies
  /// by derate_factor and each epoch tallies a thermal warning.
  double derate_threshold_c{85.0};
  double derate_factor{0.5};
  /// Hard admission ceiling (degC): a node at or above it refuses new work
  /// regardless of balancer (the thermal-DoS backstop).
  double admission_limit_c{95.0};
  std::size_t queue_capacity{64};
  /// Fractional half-width of the per-request service-time jitter drawn from
  /// the node's Rng (0 = deterministic service times).
  double service_jitter{0.05};
  /// EWMA smoothing for the recent-warning-rate signal the thermal-aware
  /// balancer reads (warnings per epoch).
  double warning_ewma_alpha{0.2};

  void feed(HashStream& h) const {
    h.add(ambient_c);
    h.add(tau_ms);
    h.add(derate_threshold_c);
    h.add(derate_factor);
    h.add(admission_limit_c);
    h.add(static_cast<std::uint64_t>(queue_capacity));
    h.add(service_jitter);
    h.add(warning_ewma_alpha);
  }
};

/// Balancer-visible snapshot of one node at epoch start (plus the dispatch
/// loop's own same-epoch assignment accounting).
struct NodeView {
  std::size_t index{0};
  std::size_t queue_len{0};  // queued + in service + assigned this epoch
  std::size_t queue_capacity{0};
  double temp_c{0.0};
  double peak_c{0.0};
  double warning_rate{0.0};  // EWMA warnings/epoch
  bool admitting{false};     // below the admission ceiling with queue space
};

/// End-of-run per-node accounting (the BENCH_fleet.json `nodes[]` rows).
struct NodeSummary {
  std::size_t index{0};
  std::uint64_t served{0};
  std::uint64_t warnings{0};
  double peak_c{0.0};
  double final_c{0.0};
  double busy_ms{0.0};
  double served_pim_ops{0.0};
};

/// Grid-fidelity node thermals (fleet.hpp ThermalFidelity::kGrid): the
/// node's own 3-D stack replaces the first-order RC update.  Each epoch the
/// RC load signal (heat-weighted busy ms / epoch ms, in degC) drives the
/// logic die at watts_per_c watts per degC, and the node reads back the
/// stack's peak DRAM temperature.
struct NodeStack {
  thermal::StackModel model;  ///< spec ambient = this node's ambient
  double watts_per_c{0.0};
  bool adi{false};  ///< step_adi() instead of the explicit step()
};

/// One completed request's latency sample.
struct LatencySample {
  double latency_ms{0.0};
  std::uint32_t profile{0};
};

class Node {
 public:
  /// `stack` switches the node to grid-fidelity thermals; without it the
  /// node runs the first-order RC model.
  Node(std::size_t index, NodeConfig cfg, const std::vector<ServiceProfile>& profiles,
       std::uint64_t seed, std::optional<NodeStack> stack = std::nullopt);

  /// Admission check + enqueue; returns false (request not taken) on a full
  /// queue or a node at the admission ceiling.
  bool enqueue(const Request& req);

  /// Advance one fleet epoch [now_ms, now_ms + dt_ms): serve, heat, tally.
  /// Touches only this node's state (safe to run concurrently across nodes).
  void step(double now_ms, double dt_ms);

  [[nodiscard]] NodeView view() const;
  [[nodiscard]] NodeSummary summary() const;
  [[nodiscard]] const std::vector<LatencySample>& latencies() const { return latencies_; }
  [[nodiscard]] double temp_c() const { return temp_c_; }
  [[nodiscard]] std::size_t backlog() const { return queue_.size() + (in_service_ ? 1 : 0); }

 private:
  void start_next(double now_ms);
  /// Serve queued requests for one epoch; returns the heat-weighted busy
  /// time (integral of profile heat_c over busy ms).
  double serve(double now_ms, double dt_ms);
  /// Commit this epoch's temperature (degC, peak-DRAM convention): peak
  /// tracking, the warning tally and the EWMA warning rate.
  void finish_epoch(double temp_c);

  std::size_t index_;
  NodeConfig cfg_;
  const std::vector<ServiceProfile>* profiles_;
  Rng rng_;

  std::deque<Request> queue_;
  bool in_service_{false};
  Request current_{};
  double service_left_ms_{0.0};  // remaining full-speed service time

  double temp_c_;
  double peak_c_;
  double warning_rate_{0.0};
  std::optional<NodeStack> stack_;

  NodeSummary summary_{};
  std::vector<LatencySample> latencies_;
};

}  // namespace coolpim::fleet
