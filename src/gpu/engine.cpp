#include "gpu/engine.hpp"

#include <algorithm>
#include <cmath>

#include "obs/names.hpp"

namespace coolpim::gpu {

std::vector<LaunchSpec> build_launches(const graph::WorkloadProfile& profile,
                                       const GpuConfig& cfg, const CacheHitModel& cache) {
  std::vector<LaunchSpec> out;
  out.reserve(profile.iterations.size());
  for (const auto& it : profile.iterations) {
    LaunchSpec spec;
    spec.mem = characterize(it, cache);
    // Atomic issue occupies the pipeline like any other warp instruction.
    spec.warp_instructions = static_cast<double>(it.compute_warp_instructions) +
                             static_cast<double>(it.atomic_ops) /
                                 static_cast<double>(cfg.threads_per_warp);
    const std::uint64_t threads = std::max<std::uint64_t>(it.work_threads, 1);
    spec.blocks = (threads + cfg.threads_per_block - 1) / cfg.threads_per_block;
    spec.warps = (threads + cfg.threads_per_warp - 1) / cfg.threads_per_warp;
    spec.divergence = it.divergent_warp_ratio;
    out.push_back(spec);
  }
  return out;
}

ExecutionEngine::ExecutionEngine(GpuConfig cfg, std::vector<LaunchSpec> launches,
                                 control::Policy& controller)
    : cfg_{std::move(cfg)}, launches_{std::move(launches)}, controller_{controller} {
  cfg_.validate();
  COOLPIM_REQUIRE(!launches_.empty(), "workload has no kernel launches");
  begin_launch(Time::zero());
}

void ExecutionEngine::begin_launch(Time now) {
  prog_ = Progress{};
  prog_.overhead_left = launch_overhead;
  resident_.clear();
  blocks_launched_ = 0;
  resident_pim_ = 0;
  launch_began_ = now;
  if (launch_idx_ < launches_.size()) {
    refill_residency(now);
    if (counters_) counters_->counter(obs::names::kGpuKernelLaunches).add();
  }
}

void ExecutionEngine::refill_residency(Time now) {
  const auto& launch = launches_[launch_idx_];
  const std::uint64_t cap = std::min<std::uint64_t>(cfg_.max_resident_blocks(), launch.blocks);
  while (resident_.size() < cap && blocks_launched_ < launch.blocks) {
    const bool has_token = controller_.acquire_block(now);
    resident_.push_back(has_token);
    if (has_token) ++resident_pim_;
    ++blocks_launched_;
  }
}

void ExecutionEngine::retire_blocks(Time now, double count) {
  prog_.blocks_retired += count;
  while (prog_.blocks_retired >= 1.0 && !resident_.empty()) {
    prog_.blocks_retired -= 1.0;
    const bool had_token = resident_.front();
    resident_.pop_front();
    if (had_token) {
      --resident_pim_;
      controller_.release_block(now);
    }
    if (counters_) counters_->counter(obs::names::kGpuBlocksRetired).add();
  }
  refill_residency(now);
}

double ExecutionEngine::pim_fraction(Time now) const {
  if (resident_.empty()) return 0.0;
  const double block_frac =
      static_cast<double>(resident_pim_) / static_cast<double>(resident_.size());
  return block_frac * controller_.pim_warp_fraction(now);
}

double ExecutionEngine::gpu_bound_fraction(Time window) const {
  const auto& launch = launches_[launch_idx_];
  const double remaining = 1.0 - prog_.fraction_done;
  if (remaining <= 0.0) return 0.0;

  // Resident warps: blocks resident * warps per block, capped by what the
  // launch actually has left.
  const double resident_warps = std::min(
      static_cast<double>(resident_.size()) * static_cast<double>(cfg_.warps_per_block()),
      static_cast<double>(launch.warps));

  // Constraint 1: warp-instruction issue.  SM front ends saturate once
  // enough warps are resident; below that, issue scales with occupancy.
  const double warps_to_saturate = static_cast<double>(cfg_.num_sms) * 8.0;
  const double issue_eff = std::min(1.0, resident_warps / warps_to_saturate);
  const double instr_capacity = cfg_.issue_rate_per_sec() * issue_eff * window.as_sec();
  const double instr_remaining = launch.warp_instructions * remaining;
  const double f_issue = instr_remaining > 0.0 ? instr_capacity / instr_remaining : 1.0;

  // Constraint 2: latency-bound memory request rate at low occupancy.
  const double total_mem_ops =
      launch.mem.read_txns + launch.mem.write_txns + launch.mem.atomic_ops;
  const double mem_remaining = total_mem_ops * remaining;
  double f_latency = 1.0;
  if (mem_remaining > 0.0) {
    const double req_rate = resident_warps * cfg_.mlp_per_warp *
                            static_cast<double>(cfg_.threads_per_warp) /
                            cfg_.mem_latency.as_sec();
    f_latency = req_rate * window.as_sec() / mem_remaining;
  }

  return std::clamp(std::min(f_issue, f_latency), 0.0, remaining > 0 ? 1.0 : 0.0);
}

hmc::EpochDemand ExecutionEngine::plan(Time now, Time window) {
  hmc::EpochDemand demand{};
  if (finished()) return demand;
  if (prog_.overhead_left > Time::zero()) return demand;  // dispatch overhead

  const auto& launch = launches_[launch_idx_];
  const double remaining = 1.0 - prog_.fraction_done;
  // Fraction of the whole launch the GPU could advance this window, bounded
  // by what is left and by any blanket demand throttle.
  const double advance = std::min(
      gpu_bound_fraction(window) * controller_.demand_scale(now) * remaining, remaining);

  const double p = pim_fraction(now);
  const double atomics = launch.mem.atomic_ops * advance;
  const double host_rmw = atomics * (1.0 - p) * cfg_.host_atomic_coalescing;
  demand.reads = launch.mem.read_txns * advance + host_rmw;
  demand.writes = launch.mem.write_txns * advance + host_rmw;
  demand.pim_ops = atomics * p;
  if (cfg_.offload_policy == OffloadPolicy::kCoherentWriteback) {
    // PEI-style coherence: each offload may write back / invalidate the
    // cached copy of its block before the PIM op may proceed.
    demand.writes += demand.pim_ops * cfg_.pei_coherence_txns;
  }
  demand.pim_return_fraction = 0.0;  // atomicMin/Add offloads need no return
  return demand;
}

Time ExecutionEngine::commit(Time now, Time window, const hmc::EpochService& service) {
  if (finished()) return window;

  if (prog_.overhead_left > Time::zero()) {
    const Time used = std::min(window, prog_.overhead_left);
    prog_.overhead_left -= used;
    return used;
  }

  const auto& launch = launches_[launch_idx_];
  const double remaining = 1.0 - prog_.fraction_done;
  const double gpu_advance = std::min(
      gpu_bound_fraction(window) * controller_.demand_scale(now) * remaining, remaining);
  const double advance = gpu_advance * service.served_fraction;

  prog_.fraction_done += advance;
  // Both op streams are fractional per epoch; rounding each epoch
  // independently (the old `+ 0.5` cast) drifts by up to half an op per
  // epoch over long runs.  Instead accumulate the exact running sum and
  // emit the integer delta, so the counter total is always floor(sum).
  pim_ops_accum_ += service.pim_ops;
  host_atomics_accum_ += launch.mem.atomic_ops * advance * (1.0 - pim_fraction(now));
  const auto pim_total = static_cast<std::uint64_t>(pim_ops_accum_);
  const auto host_total = static_cast<std::uint64_t>(host_atomics_accum_);
  const std::uint64_t pim_inc = pim_total - pim_ops_emitted_;
  const std::uint64_t host_inc = host_total - host_atomics_emitted_;
  pim_ops_emitted_ = pim_total;
  host_atomics_emitted_ = host_total;
  if (counters_) {
    counters_->counter(obs::names::kGpuPimOps).add(pim_inc);
    counters_->counter(obs::names::kGpuHostAtomics).add(host_inc);
    counters_->gauge(obs::names::kGpuPimFraction).set(pim_fraction(now));
  }

  retire_blocks(now, advance * static_cast<double>(launch.blocks));

  if (prog_.fraction_done >= 1.0 - 1e-9) {
    if (trace_.enabled()) {
      trace_.complete(launch_began_, now - launch_began_, obs::names::kCatGpu, "kernel_launch",
                      {{"launch", static_cast<std::uint64_t>(launch_idx_)},
                       {"blocks", launch.blocks},
                       {"warps", launch.warps}});
    }
    // Launch complete: release any tokens still held and move on.  Consume
    // the full window (the tail fraction is sub-epoch noise).
    while (!resident_.empty()) {
      if (resident_.front()) {
        --resident_pim_;
        controller_.release_block(now);
      }
      resident_.pop_front();
    }
    ++launch_idx_;
    begin_launch(now);
  }
  return window;
}

void ExecutionEngine::restart() {
  launch_idx_ = 0;
  // Release tokens held across the restart boundary.
  while (!resident_.empty()) {
    if (resident_.front()) controller_.release_block(Time::zero());
    resident_.pop_front();
  }
  resident_pim_ = 0;
  begin_launch(Time::zero());
}

}  // namespace coolpim::gpu
