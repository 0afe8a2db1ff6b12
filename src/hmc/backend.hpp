// The HMC service-backend contract: fidelity is data, selected by name.
//
// sys::SystemRun drives the epoch loop against this interface instead of a
// hard-wired model.  Two fidelity tiers register (DESIGN.md section 15):
//
//   epoch-throughput  hmc::ThroughputModel behind EpochThroughputBackend.
//                     Analytic per-epoch admission; the default, and
//                     byte-identical to the pre-contract simulator.
//   pim-vault         pim::PimVaultBackend (src/pim/).  Instruction-level
//                     PIM units: CRF fetch/decode with program/loop
//                     counters, per-bank operand conflicts, DRAM timing
//                     through hmc::Vault / hmc::Bank.
//
// The contract has three hooks:
//   - serve-epoch: serve()/probe() resolve one epoch of demand at the
//     current DRAM temperature (probe is the side-effect-free what-if form
//     used by steady-state warm-up jumps and cross-validation).
//   - op-accounting: every serve() integrates exact double op totals into
//     ops(); drain_op_delta() emits integers with a residual carry so
//     counter totals are single-rounded from the exact sums -- per-run
//     pim_ops totals are backend-comparable by construction.
//   - thermal-power: thermal_power() maps a served mix to the bandwidths
//     the power model charges.
//
// The registry mirrors the policy registry (sys/policy_registry.hpp): an
// iterable kRegisteredBackends table, name lookup for --hmc-backend /
// COOLPIM_HMC_BACKEND, and one uniform build entry point.  make_backend()
// is *defined* in src/pim/backend_factory.cpp -- the pim library sits above
// hmc (it builds on vault/bank structures), so only that layer can name
// every registered tier.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/units.hpp"
#include "hmc/config.hpp"
#include "hmc/fidelity_names.hpp"
#include "hmc/link_model.hpp"
#include "hmc/thermal_policy.hpp"
#include "hmc/throughput_model.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace coolpim::hmc {

/// runner::config_hash hashes the numeric value, so values are pinned: a
/// renumbering would change every experiment key and seed of that tier.
enum class BackendKind : std::uint8_t {
  kEpochThroughput = 0,
  kPimVault = 2,
};

[[nodiscard]] constexpr std::string_view to_string(BackendKind k) {
  switch (k) {
    case BackendKind::kEpochThroughput: return fidelity::kEpochThroughput;
    case BackendKind::kPimVault: return fidelity::kPimVault;
  }
  return "?";
}

struct BackendInfo {
  std::string_view cli_name;  // --hmc-backend / COOLPIM_HMC_BACKEND vocabulary
  BackendKind kind;
};

/// Every registered service backend; the conformance tests iterate this
/// array, so registering a third backend enrols it automatically.
inline constexpr BackendInfo kRegisteredBackends[] = {
    {fidelity::kEpochThroughput, BackendKind::kEpochThroughput},
    {fidelity::kPimVault, BackendKind::kPimVault},
};

/// Resolve a registered backend name; returns false (leaving `out`
/// untouched) for an unknown name.
[[nodiscard]] bool backend_from_name(std::string_view name, BackendKind& out);

/// Comma-separated registered names, for --help and error messages.
[[nodiscard]] std::string backend_names();

/// Exact (double) op totals integrated over every serve() so far.
struct OpAccounting {
  double reads{0.0};
  double writes{0.0};
  double pim_ops{0.0};
};

/// Integer counter emission since the previous drain (residual carry).
struct OpDelta {
  std::uint64_t reads{0};
  std::uint64_t writes{0};
  std::uint64_t pim_ops{0};
};

/// Bandwidths the power model charges for a served transaction mix.
struct ThermalPower {
  Bandwidth link_raw;
  Bandwidth dram_internal;
};

class Backend {
 public:
  virtual ~Backend() = default;

  [[nodiscard]] virtual BackendKind kind() const = 0;
  [[nodiscard]] std::string_view name() const { return to_string(kind()); }
  [[nodiscard]] virtual const HmcConfig& config() const = 0;
  [[nodiscard]] virtual const LinkModel& link() const = 0;
  [[nodiscard]] virtual const ThermalPolicy& policy() const = 0;

  /// Serve-epoch hook: resolve how much of `demand` the device serves in
  /// `epoch` at DRAM temperature `dram_temp`, integrating the served ops
  /// into the op-accounting totals.
  [[nodiscard]] EpochService serve(const EpochDemand& demand, Time epoch,
                                   Celsius dram_temp) {
    const EpochService s = do_serve(demand, epoch, dram_temp);
    ops_.reads += s.reads;
    ops_.writes += s.writes;
    ops_.pim_ops += s.pim_ops;
    return s;
  }

  /// Side-effect-free what-if serve: no op accounting, no internal state
  /// advanced (warm-up equilibrium probes, cross-validation sweeps).
  [[nodiscard]] virtual EpochService probe(const EpochDemand& demand, Time epoch,
                                           Celsius dram_temp) const = 0;

  /// Thermal-power hook: what the power model charges for a served mix.
  [[nodiscard]] virtual ThermalPower thermal_power(const TransactionMix& served) const {
    return {link().raw_link_bandwidth(served), link().internal_dram_bandwidth(served)};
  }

  /// Op-accounting hook: exact totals since construction.
  [[nodiscard]] const OpAccounting& ops() const { return ops_; }

  /// Integer ops since the previous drain.  Each class emits
  /// round(total) - emitted-so-far, so the sum of every drain equals the
  /// single rounding of the exact total -- no per-epoch rounding drift.
  [[nodiscard]] OpDelta drain_op_delta() {
    OpDelta d;
    d.reads = drain_one(ops_.reads, emitted_reads_);
    d.writes = drain_one(ops_.writes, emitted_writes_);
    d.pim_ops = drain_one(ops_.pim_ops, emitted_pim_ops_);
    return d;
  }

  /// Observability attach point; read-only, null by default.
  virtual void set_observer(obs::Trace /*trace*/, obs::CounterRegistry* /*counters*/) {}

 protected:
  [[nodiscard]] virtual EpochService do_serve(const EpochDemand& demand, Time epoch,
                                              Celsius dram_temp) = 0;

 private:
  static std::uint64_t drain_one(double total, std::uint64_t& emitted) {
    const auto rounded = static_cast<std::uint64_t>(total + 0.5);
    const std::uint64_t delta = rounded - emitted;
    emitted = rounded;
    return delta;
  }

  OpAccounting ops_{};
  std::uint64_t emitted_reads_{0};
  std::uint64_t emitted_writes_{0};
  std::uint64_t emitted_pim_ops_{0};
};

/// The analytic epoch model refitted under the contract.  serve() forwards
/// to ThroughputModel::serve verbatim, so runs through this member are
/// byte-identical to the pre-contract simulator.
class EpochThroughputBackend final : public Backend {
 public:
  explicit EpochThroughputBackend(HmcConfig cfg, ThermalPolicy policy = {})
      : model_{std::move(cfg), policy} {}

  [[nodiscard]] BackendKind kind() const override { return BackendKind::kEpochThroughput; }
  [[nodiscard]] const HmcConfig& config() const override { return model_.config(); }
  [[nodiscard]] const LinkModel& link() const override { return model_.link(); }
  [[nodiscard]] const ThermalPolicy& policy() const override { return model_.policy(); }

  [[nodiscard]] EpochService probe(const EpochDemand& demand, Time epoch,
                                   Celsius dram_temp) const override {
    return model_.serve(demand, epoch, dram_temp);
  }

  [[nodiscard]] const ThroughputModel& model() const { return model_; }

 protected:
  [[nodiscard]] EpochService do_serve(const EpochDemand& demand, Time epoch,
                                      Celsius dram_temp) override {
    return model_.serve(demand, epoch, dram_temp);
  }

 private:
  ThroughputModel model_;
};

/// Everything any backend may need; sys:: fills it from its SystemConfig.
struct BackendBuild {
  BackendKind kind{BackendKind::kEpochThroughput};
  HmcConfig hmc{hmc20_config()};
  ThermalPolicy policy{};
  /// Operand-address stream seed for the instruction-level tier (the run
  /// seed, so CRF traces are deterministic per experiment).
  std::uint64_t seed{7};
  /// Micro-kernel the pim-vault tier lowers PIM demand to (pim/programs.hpp
  /// vocabulary); empty = the default kernel.
  std::string pim_kernel{};
};

/// Build the named backend.  Defined in src/pim/backend_factory.cpp (the
/// topmost backend library); callers link coolpim_pim.
[[nodiscard]] std::unique_ptr<Backend> make_backend(const BackendBuild& build);

}  // namespace coolpim::hmc
