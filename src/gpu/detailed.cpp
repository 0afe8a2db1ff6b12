#include "gpu/detailed.hpp"

#include <algorithm>

namespace coolpim::gpu {

DetailedGpu::DetailedGpu(sim::Simulation& sim, GpuConfig cfg, hmc::Device& device)
    : sim_{sim}, cfg_{std::move(cfg)}, device_{device} {
  cfg_.validate();
  sms_.resize(cfg_.num_sms);
  for (auto& sm : sms_) {
    sm.l1 = std::make_unique<Cache>(cfg_.l1_bytes, cfg_.l1_ways, cfg_.line_bytes);
  }
}

void DetailedGpu::launch(const std::vector<WarpTrace>& traces) {
  COOLPIM_REQUIRE(!traces.empty(), "launch needs at least one warp");
  std::uint64_t warp_id = warps_.size();
  for (const auto& trace : traces) {
    auto warp = std::make_unique<Warp>();
    warp->sm = warp_id % sms_.size();
    warp->trace = trace;
    warp->rng = Rng{0x5eed ^ warp_id};
    warp->next_addr = warp_id * 4096;
    total_ops_ += trace.memory_ops;
    Warp* raw = warp.get();
    warps_.push_back(std::move(warp));
    sim_.schedule_in(Time::zero(), [this, raw] { step_warp(*raw); });
    ++warp_id;
  }
}

void DetailedGpu::step_warp(Warp& warp) {
  if (warp.ops_done >= warp.trace.memory_ops) return;

  // Compute burst: the warp occupies its SM's issue pipeline for one cycle
  // per warp instruction; bursts from co-resident warps serialize.
  Sm& sm = sms_[warp.sm];
  const Time cycle = cfg_.clock.period();
  const Time start = std::max(sim_.now(), sm.issue_free_at);
  const Time burst =
      cycle * static_cast<double>(warp.trace.compute_per_memop + 1);  // +1: the memop issue
  sm.issue_free_at = start + burst;

  sim_.schedule_at(sm.issue_free_at, [this, &warp] { issue_memop(warp); });
}

void DetailedGpu::issue_memop(Warp& warp) {
  Sm& sm = sms_[warp.sm];

  // Generate the address.
  std::uint64_t addr;
  if (warp.trace.pattern == AddressPattern::kStreaming) {
    addr = warp.next_addr;
    warp.next_addr += cfg_.line_bytes;
  } else {
    addr = warp.rng.next_below(warp.trace.footprint_bytes) & ~std::uint64_t{63};
  }

  // PIM transactions bypass the caches (uncacheable region); regular ones
  // check the L1 first.
  const bool is_pim = warp.trace.type == hmc::TransactionType::kPimNoReturn ||
                      warp.trace.type == hmc::TransactionType::kPimWithReturn;
  if (!is_pim && sm.l1->access(addr)) {
    ++l1_hits_;
    ++warp.ops_done;
    // Hit latency is hidden by the pipeline; continue immediately.
    sim_.schedule_in(cfg_.clock.period(), [this, &warp] { step_warp(warp); });
    return;
  }

  const Time issued = sim_.now();
  device_.submit({warp.trace.type, addr, 0}, [this, &warp, issued](const hmc::Response&) {
    ++warp.ops_done;
    payload_bytes_ += 64;  // one line's worth of useful data per miss
    last_completion_ = sim_.now();
    latency_ns_.record((sim_.now() - issued).as_ns());
    step_warp(warp);
  });
}

DetailedResult DetailedGpu::result() const {
  DetailedResult out;
  out.completion = last_completion_;
  out.memory_ops = total_ops_;
  out.l1_hits = l1_hits_;
  const double secs = last_completion_.as_sec();
  out.achieved_gbps = secs > 0.0 ? static_cast<double>(payload_bytes_) / secs * 1e-9 : 0.0;
  out.avg_latency_ns = latency_ns_.mean();
  return out;
}

}  // namespace coolpim::gpu
