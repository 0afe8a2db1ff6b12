// Pluggable fleet load balancers (--balancer / COOLPIM_BALANCER).
//
// A Balancer picks the node for each arriving request from the dispatch
// loop's NodeView snapshot (node state at epoch start plus same-epoch
// assignment accounting).  Returning kDefer hands the request back to
// admission control, which retries next epoch and sheds after
// FleetConfig::max_defer_epochs.
//
// Three members ship, mirroring the throttling-policy registry pattern
// (sys/policy_registry.hpp): round-robin (oblivious), join-shortest-queue
// (load-only), and thermal-aware -- JSQ with a per-degC penalty above a
// reference temperature plus a recent-ERRSTAT-warning-rate penalty, the
// fleet-level analogue of SW-DynT routing work away from a hot cube.
// All members break score ties toward the lowest node index, so placement
// is deterministic (tested in tests/test_fleet.cpp).
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.hpp"
#include "fleet/node.hpp"

namespace coolpim::fleet {

/// Sentinel pick: no admitting node acceptable; defer the request.
inline constexpr std::size_t kDefer = std::numeric_limits<std::size_t>::max();

/// Thermal-aware scoring knobs (ignored by the oblivious members).
struct BalancerConfig {
  /// Temperature above which a node starts paying a routing penalty (degC).
  double temp_ref_c{80.0};
  /// Penalty per degC above temp_ref_c, in queue-slot units.
  double temp_weight{4.0};
  /// Penalty per unit of EWMA warning rate (warnings/epoch), in queue-slot
  /// units.
  double warning_weight{8.0};

  void feed(HashStream& h) const {
    h.add(temp_ref_c);
    h.add(temp_weight);
    h.add(warning_weight);
  }
};

class Balancer {
 public:
  virtual ~Balancer() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Pick an admitting node for `req`, or kDefer.  Called once per request
  /// on the dispatch thread, in arrival order.
  [[nodiscard]] virtual std::size_t pick(const std::vector<NodeView>& nodes,
                                         const Request& req) = 0;
};

/// Registered balancer names ("round-robin", "join-shortest-queue",
/// "thermal-aware"), comma-separated for --help and error messages.
[[nodiscard]] std::string balancer_names();

/// True iff `name` is a registered balancer.
[[nodiscard]] bool balancer_known(std::string_view name);

/// Build a registered balancer; throws ConfigError on an unknown name,
/// listing the registered vocabulary.
[[nodiscard]] std::unique_ptr<Balancer> make_balancer(std::string_view name,
                                                      const BalancerConfig& cfg);

}  // namespace coolpim::fleet
