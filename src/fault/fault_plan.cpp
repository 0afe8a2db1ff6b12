#include "fault/fault_plan.hpp"

#include <utility>

#include "common/hash.hpp"
#include "hmc/thermal_policy.hpp"
#include "obs/names.hpp"

namespace coolpim::fault {

namespace {
/// Salt decoupling the fault stream from every other consumer of run_seed
/// (cache characterization forks the seed directly).
constexpr std::uint64_t kFaultStreamSalt = 0xfa17'0a1a'c0de'0001ULL;
}  // namespace

FaultPlan::FaultPlan(const FaultConfig& cfg, std::uint64_t run_seed)
    : cfg_{cfg}, rng_{mix_seed(run_seed ^ kFaultStreamSalt)} {
  cfg_.validate();
}

void FaultPlan::set_observer(obs::Trace trace, obs::CounterRegistry* counters) {
  trace_ = trace;
  counters_ = counters;
}

void FaultPlan::begin_epoch(Time now) {
  if (in_outage_ && now >= outage_until_) in_outage_ = false;
  if (!in_outage_ && cfg_.link_outage_rate > 0.0 && rng_.next_bool(cfg_.link_outage_rate)) {
    in_outage_ = true;
    outage_until_ = now + cfg_.link_outage_duration;
    ++stats_.link_outages;
    if (counters_ != nullptr) counters_->counter(obs::names::kFaultLinkOutages).add();
    trace_.complete(now, cfg_.link_outage_duration, obs::names::kCatFault, "link_outage");
  }
  if (sensor_stuck_ && now >= stuck_until_) sensor_stuck_ = false;
  if (!sensor_stuck_ && cfg_.sensor_stuck_rate > 0.0 &&
      rng_.next_bool(cfg_.sensor_stuck_rate)) {
    sensor_stuck_ = true;
    stuck_until_ = now + cfg_.sensor_stuck_duration;
    have_stuck_value_ = false;  // freeze at the next reading
    trace_.complete(now, cfg_.sensor_stuck_duration, obs::names::kCatFault, "sensor_stuck");
  }
}

Celsius FaultPlan::condition_reading(Time now, Celsius actual) {
  if (sensor_stuck_ && have_stuck_value_) {
    ++stats_.sensor_stuck_epochs;
    if (counters_ != nullptr) counters_->counter(obs::names::kFaultSensorStuckEpochs).add();
    return stuck_value_;
  }
  double v = actual.value();
  if (cfg_.sensor_noise_sigma_c > 0.0) v += rng_.next_normal() * cfg_.sensor_noise_sigma_c;
  const Celsius conditioned = hmc::quantize_reading(Celsius{v}, cfg_.sensor_quantization_c);
  if (sensor_stuck_) {
    // First reading inside the stuck window: freeze it.
    stuck_value_ = conditioned;
    have_stuck_value_ = true;
    ++stats_.sensor_stuck_epochs;
    if (counters_ != nullptr) counters_->counter(obs::names::kFaultSensorStuckEpochs).add();
    trace_.instant(now, obs::names::kCatFault, "sensor_frozen",
                   {{"held_c", conditioned.value()}});
  }
  return conditioned;
}

void FaultPlan::offer_warning(Time now) {
  ++stats_.warnings_offered;
  if (counters_ != nullptr) counters_->counter(obs::names::kFaultWarningsOffered).add();

  if (in_outage_) {
    ++stats_.warnings_lost_outage;
    if (counters_ != nullptr) counters_->counter(obs::names::kFaultWarningsLostOutage).add();
    trace_.instant(now, obs::names::kCatFault, "warning_lost_outage");
    return;
  }
  if (cfg_.warning_drop_rate > 0.0 && rng_.next_bool(cfg_.warning_drop_rate)) {
    ++stats_.warnings_dropped;
    if (counters_ != nullptr) counters_->counter(obs::names::kFaultWarningsDropped).add();
    trace_.instant(now, obs::names::kCatFault, "warning_dropped");
    return;
  }

  Time deliver = now;
  std::uint32_t replays = 0;
  if (cfg_.errstat_corrupt_rate > 0.0) {
    // Each transmission attempt re-rolls the corruption rate; a detected
    // corruption costs one replay with the policy's per-attempt backoff.
    bool lost = false;
    while (rng_.next_bool(cfg_.errstat_corrupt_rate)) {
      if (replays == cfg_.retry.max_retries) {
        lost = true;
        break;
      }
      ++replays;
      ++stats_.retries;
      if (counters_ != nullptr) counters_->counter(obs::names::kFaultRetries).add();
      deliver += cfg_.retry.retry_delay(replays);
    }
    if (lost) {
      ++stats_.retry_giveups;
      if (counters_ != nullptr) counters_->counter(obs::names::kFaultRetryGiveups).add();
      trace_.instant(now, obs::names::kCatFault, "retry_giveup",
                     {{"replays", cfg_.retry.max_retries}});
      return;
    }
    if (replays > 0) {
      ++stats_.warnings_corrupted;
      if (counters_ != nullptr) counters_->counter(obs::names::kFaultWarningsCorrupted).add();
      if (trace_.enabled()) {
        trace_.complete(now, deliver - now, obs::names::kCatFault, "warning_retried",
                        {{"replays", replays}});
      }
    }
  }
  if (cfg_.warning_delay_max > Time::zero()) {
    deliver += Time::ps(static_cast<std::int64_t>(
        rng_.next_below(static_cast<std::uint64_t>(cfg_.warning_delay_max.as_ps()) + 1)));
  }
  if (deliver > now) {
    ++stats_.warnings_delayed;
    if (counters_ != nullptr) counters_->counter(obs::names::kFaultWarningsDelayed).add();
  }
  enqueue_delivery(now, deliver, /*spurious=*/false);
}

void FaultPlan::maybe_spurious(Time now) {
  if (cfg_.spurious_warning_rate <= 0.0 || in_outage_) return;
  if (!rng_.next_bool(cfg_.spurious_warning_rate)) return;
  ++stats_.spurious_warnings;
  if (counters_ != nullptr) counters_->counter(obs::names::kFaultSpuriousWarnings).add();
  trace_.instant(now, obs::names::kCatFault, "spurious_warning");
  enqueue_delivery(now, now, /*spurious=*/true);
}

std::vector<FaultPlan::Delivery> FaultPlan::collect_due(Time now) {
  due_.clear();
  pending_.run_until(now);
  stats_.warnings_delivered += due_.size();
  std::vector<Delivery> out;
  out.swap(due_);
  return out;
}

void FaultPlan::enqueue_delivery(Time raised_at, Time deliver_at, bool spurious) {
  const Delivery d{deliver_at, raised_at, spurious};
  pending_.schedule(deliver_at, [this, d] { due_.push_back(d); });
}

}  // namespace coolpim::fault
