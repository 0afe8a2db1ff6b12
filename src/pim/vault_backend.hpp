// Instruction-level PIM service backend (--hmc-backend pim-vault).
//
// The third fidelity tier of the hmc::Backend contract.  Each epoch's PIM
// demand is lowered to executions of one CRF micro-kernel (pim/programs.hpp)
// and replayed on per-vault PimUnits: CRF fetch/decode with program/loop
// counters, per-bank operand conflicts and DRAM timing through hmc::Vault /
// hmc::Bank.  The measured steady PIM rate bounds the epoch's admission
// scale alongside the analytic link/DRAM constraints (reads and writes do
// not execute instructions, so their caps stay analytic); the final scale is
// applied uniformly, keeping EpochService semantics identical across tiers.
//
// Determinism: operand streams derive from the build seed only, so a rerun
// with the same seed serves bit-identical epochs and pim/* counters
// (tests/test_backends.cpp, and the pim-vault golden matrix in
// tests/test_golden_matrix.cpp).  The backend records no CRF trace; the
// unit-level trace test drives PimUnit with a sink instead.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "hmc/backend.hpp"
#include "pim/pim_unit.hpp"
#include "pim/programs.hpp"

namespace coolpim::pim {

class PimVaultBackend final : public hmc::Backend {
 public:
  /// Per-epoch cap on replayed PIM operand ops: two full passes over the
  /// cube's 512 banks at 8 ops each -- enough to reach the steady conflict
  /// rate, small enough to keep full runs usable.
  static constexpr std::uint64_t kMaxSampledOps = 8192;

  PimVaultBackend(hmc::HmcConfig cfg, hmc::ThermalPolicy policy, std::uint64_t seed,
                  std::string_view kernel);

  [[nodiscard]] hmc::BackendKind kind() const override {
    return hmc::BackendKind::kPimVault;
  }
  [[nodiscard]] const hmc::HmcConfig& config() const override {
    return analytic_.config();
  }
  [[nodiscard]] const hmc::LinkModel& link() const override { return analytic_.link(); }
  [[nodiscard]] const hmc::ThermalPolicy& policy() const override {
    return analytic_.policy();
  }

  [[nodiscard]] hmc::EpochService probe(const hmc::EpochDemand& demand, Time epoch,
                                        Celsius dram_temp) const override;

  void set_observer(obs::Trace trace, obs::CounterRegistry* counters) override {
    trace_ = trace;
    counters_ = counters;
  }

  [[nodiscard]] const CrfProgram& program() const { return program_; }

 protected:
  [[nodiscard]] hmc::EpochService do_serve(const hmc::EpochDemand& demand, Time epoch,
                                           Celsius dram_temp) override;

 private:
  struct Carry {
    double pim_ops{0.0};   // residual sub-op demand across epochs
    std::uint64_t epoch_index{0};  // decorrelates operand streams per epoch
  };

  /// Replay one epoch; the pim/* counters go to `counters` when it is
  /// non-null (serve() passes the attached registry, probe() none).
  [[nodiscard]] hmc::EpochService run_vaults(const hmc::EpochDemand& demand, Time epoch,
                                             Celsius dram_temp, Carry& carry,
                                             obs::CounterRegistry* counters) const;

  hmc::ThroughputModel analytic_;  // link/DRAM caps + bandwidth reporting
  CrfProgram program_;
  std::uint64_t seed_;
  Carry carry_{};
  obs::Trace trace_{};
  obs::CounterRegistry* counters_{nullptr};
};

}  // namespace coolpim::pim
