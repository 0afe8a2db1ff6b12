#include "fleet/node.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace coolpim::fleet {

Node::Node(std::size_t index, NodeConfig cfg, const std::vector<ServiceProfile>& profiles,
           std::uint64_t seed, std::optional<NodeStack> stack)
    : index_{index}, cfg_{cfg}, profiles_{&profiles}, rng_{seed}, temp_c_{cfg.ambient_c},
      peak_c_{cfg.ambient_c}, stack_{std::move(stack)} {
  COOLPIM_REQUIRE(!profiles.empty(), "node needs at least one service profile");
  COOLPIM_REQUIRE(cfg.queue_capacity > 0, "node queue capacity must be positive");
  COOLPIM_REQUIRE(cfg.tau_ms > 0.0, "thermal time constant must be positive");
  COOLPIM_REQUIRE(cfg.derate_factor > 0.0 && cfg.derate_factor <= 1.0,
                  "derate factor must be in (0, 1]");
  summary_.index = index;
  summary_.peak_c = summary_.final_c = cfg.ambient_c;
}

bool Node::enqueue(const Request& req) {
  if (temp_c_ >= cfg_.admission_limit_c) return false;
  if (backlog() >= cfg_.queue_capacity) return false;
  queue_.push_back(req);
  return true;
}

void Node::start_next(double /*now_ms*/) {
  current_ = queue_.front();
  queue_.pop_front();
  in_service_ = true;
  const ServiceProfile& p = (*profiles_)[current_.profile];
  // Symmetric multiplicative jitter from this node's own stream: the draw
  // happens exactly once per request, in service order, so the sequence is a
  // pure function of (seed, arrival order) -- never of thread scheduling.
  const double jitter = cfg_.service_jitter > 0.0
                            ? 1.0 + cfg_.service_jitter * (2.0 * rng_.next_double() - 1.0)
                            : 1.0;
  service_left_ms_ = p.service_ms * jitter;
}

void Node::step(double now_ms, double dt_ms) {
  const double heat_weighted_ms = serve(now_ms, dt_ms);
  if (stack_) {
    thermal::StackModel& m = stack_->model;
    m.set_layer_power(0, thermal::uniform_power(m.spec().floorplan,
                                                stack_->watts_per_c * heat_weighted_ms / dt_ms));
    if (stack_->adi) {
      m.step_adi(Time::ms(dt_ms));
    } else {
      m.step(Time::ms(dt_ms));
    }
    // Same peak-DRAM convention as the RC model: DRAM dies are layers
    // 1..top (layer 0 is logic).
    finish_epoch(m.peak_over_layers(1, m.layer_count() - 1).value());
    return;
  }
  // First-order RC pull toward the load-weighted steady target.  Exact
  // exponential decay keeps the integration stable at any epoch length.
  const double target_c = cfg_.ambient_c + heat_weighted_ms / dt_ms;
  const double alpha = 1.0 - std::exp(-dt_ms / cfg_.tau_ms);
  finish_epoch(temp_c_ + alpha * (target_c - temp_c_));
}

double Node::serve(double now_ms, double dt_ms) {
  double remaining = dt_ms;
  double busy_ms = 0.0;
  double heat_weighted_ms = 0.0;  // integral of heat_c over busy time

  while (remaining > 0.0) {
    if (!in_service_) {
      if (queue_.empty()) break;
      start_next(now_ms + (dt_ms - remaining));
    }
    const ServiceProfile& p = (*profiles_)[current_.profile];
    const double speed = temp_c_ >= cfg_.derate_threshold_c ? cfg_.derate_factor : 1.0;
    const double wall_needed = service_left_ms_ / speed;
    if (wall_needed <= remaining) {
      remaining -= wall_needed;
      busy_ms += wall_needed;
      heat_weighted_ms += p.heat_c * wall_needed;
      const double completion = now_ms + dt_ms - remaining;
      latencies_.push_back(LatencySample{completion - current_.arrival_ms, current_.profile});
      ++summary_.served;
      summary_.served_pim_ops += p.pim_ops;
      in_service_ = false;
      service_left_ms_ = 0.0;
    } else {
      service_left_ms_ -= remaining * speed;
      busy_ms += remaining;
      heat_weighted_ms += p.heat_c * remaining;
      remaining = 0.0;
    }
  }

  summary_.busy_ms += busy_ms;
  return heat_weighted_ms;
}

void Node::finish_epoch(double temp_c) {
  temp_c_ = temp_c;
  peak_c_ = std::max(peak_c_, temp_c_);

  // ERRSTAT-style warning stream: one warning per epoch spent at or above
  // the derate threshold (the per-response warning rate a real cube's
  // responses would carry).
  const bool hot = temp_c_ >= cfg_.derate_threshold_c;
  if (hot) ++summary_.warnings;
  warning_rate_ += cfg_.warning_ewma_alpha * ((hot ? 1.0 : 0.0) - warning_rate_);

  summary_.peak_c = peak_c_;
  summary_.final_c = temp_c_;
}

NodeView Node::view() const {
  NodeView v;
  v.index = index_;
  v.queue_len = backlog();
  v.queue_capacity = cfg_.queue_capacity;
  v.temp_c = temp_c_;
  v.peak_c = peak_c_;
  v.warning_rate = warning_rate_;
  v.admitting = temp_c_ < cfg_.admission_limit_c && v.queue_len < v.queue_capacity;
  return v;
}

NodeSummary Node::summary() const { return summary_; }

}  // namespace coolpim::fleet
