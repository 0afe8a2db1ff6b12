#include "hmc/device.hpp"

#include <utility>

#include "obs/names.hpp"

namespace coolpim::hmc {

Device::Device(sim::Simulation& sim, HmcConfig cfg, ThermalPolicy policy)
    : sim_{sim}, cfg_{std::move(cfg)}, policy_{policy},
      addr_map_{cfg_.vaults, cfg_.banks_per_vault(), 64, cfg_.row_bytes} {
  cfg_.validate();
  vaults_.reserve(cfg_.vaults);
  for (std::size_t i = 0; i < cfg_.vaults; ++i) vaults_.emplace_back(cfg_);
  // Per-direction FLIT rate: half the aggregate raw bandwidth each way.
  flit_time_ = Time::sec(static_cast<double>(kFlitBytes) /
                         (0.5 * cfg_.link_raw_total().as_bytes_per_sec()));
}

Time Device::serialize_on_link(std::uint32_t flits, Time earliest) {
  // Shared serializer: the transfer occupies the pipe for flits * flit_time.
  const Time start = std::max(earliest, req_link_free_);
  req_link_free_ = start + flit_time_ * static_cast<std::int64_t>(flits);
  return req_link_free_;
}

void Device::submit(const Request& req, ResponseCallback on_response) {
  if (shut_down_) throw SimError("HMC is shut down (thermal)");
  if (!cfg_.pim_capable && (req.type == TransactionType::kPimNoReturn ||
                            req.type == TransactionType::kPimWithReturn)) {
    throw ConfigError(cfg_.name + " does not support PIM instructions");
  }

  const FlitCost cost = flit_cost(req.type);
  const Time now = sim_.now();

  // Request serialization onto the link.
  const Time at_device = serialize_on_link(cost.request, now) + crossbar_latency_;

  // Vault/bank service.  The thermal service scale applies at dispatch time;
  // updates between dispatch and completion are coarse enough for our use.
  const auto phase = policy_.phase(dram_temp_);
  if (phase == ThermalPhase::kShutdown) {
    shut_down_ = true;
    throw SimError("HMC reached shutdown temperature while serving");
  }
  const double scale = policy_.service_scale(phase);
  const auto loc = addr_map_.locate(req.address);
  const Time done =
      vaults_[loc.vault].service(at_device, req.type, loc.bank, scale, loc.row);

  // Response serialization back to the host on the outbound pipe.
  const Time resp_start = std::max(done + crossbar_latency_, resp_link_free_);
  const Time resp_done = resp_start + flit_time_ * static_cast<std::int64_t>(cost.response);
  resp_link_free_ = resp_done;

  total_flits_ += cost.total();
  payload_bytes_ += payload_bytes(req.type);
  stats_.counter("requests").add();
  stats_.summary("latency_ns").record((resp_done - now).as_ns());
  if (counters_ != nullptr) {
    counters_->counter(obs::names::kHmcRequests).add();
    counters_->counter(obs::names::kHmcReqFlits).add(cost.request);
    counters_->counter(obs::names::kHmcRespFlits).add(cost.response);
    counters_->counter(obs::names::kHmcPayloadBytes).add(payload_bytes(req.type));
  }

  Response resp{};
  resp.tag = req.tag;
  resp.errstat = warning_active() ? ErrStat::kThermalWarning : ErrStat::kOk;
  if (resp.errstat == ErrStat::kThermalWarning) {
    stats_.counter("thermal_warnings").add();
    if (counters_ != nullptr) counters_->counter(obs::names::kHmcThermalWarnings).add();
  }
  if (trace_.enabled()) {
    trace_.complete(now, resp_done - now, obs::names::kCatHmc, "request",
                    {{"type", static_cast<int>(req.type)},
                     {"vault", static_cast<std::uint64_t>(loc.vault)},
                     {"bank", static_cast<std::uint64_t>(loc.bank)},
                     {"req_flits", cost.request},
                     {"resp_flits", cost.response}});
    trace_.counter(now, obs::names::kCatHmc, "link_flits", static_cast<double>(total_flits_));
    if (resp.errstat == ErrStat::kThermalWarning) {
      trace_.instant(resp_done, obs::names::kCatHmc, "errstat_warning",
                     {{"dram_c", dram_temp_.value()}, {"tag", req.tag}});
    }
  }

  sim_.schedule_at(resp_done, [cb = std::move(on_response), resp]() { cb(resp); });
}

void Device::set_dram_temperature(Celsius t) {
  dram_temp_ = t;
  if (policy_.phase(t) == ThermalPhase::kShutdown) shut_down_ = true;
}

}  // namespace coolpim::hmc
