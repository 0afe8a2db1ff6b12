// Vault controller: per-vault bank array plus a PIM functional unit.
//
// The vault controller decodes the incoming packet, steers it to the bank
// selected by the address, and for PIM operations drives the atomic RMW on
// the locked bank through the vault's single functional unit (FU ops to
// different banks of the same vault serialize on the FU).
//
// service() is on the pim-vault backend's per-operand replay path, so the
// vault keeps only three plain per-kind counters; queueing is observable
// through the completion times service() returns.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "hmc/bank.hpp"
#include "hmc/config.hpp"
#include "hmc/packet.hpp"

namespace coolpim::hmc {

class Vault {
 public:
  Vault(const HmcConfig& cfg, Time fu_latency = Time::ns(2.0))
      : ctrl_latency_{Time::ns(4.0)}, fu_latency_{fu_latency} {
    const PagePolicy policy =
        cfg.open_page ? PagePolicy::kOpenPage : PagePolicy::kClosedPage;
    banks_.reserve(cfg.banks_per_vault());
    for (std::size_t i = 0; i < cfg.banks_per_vault(); ++i) {
      banks_.emplace_back(cfg.timing, fu_latency, policy);
    }
  }

  /// Service a transaction arriving at `arrival` targeting `bank_index`,
  /// DRAM row `row`.  Returns when the vault finished it (data returned /
  /// committed).
  Time service(Time arrival, TransactionType type, std::size_t bank_index, double scale,
               std::uint64_t row = 0) {
    COOLPIM_ASSERT(bank_index < banks_.size());
    Bank& bank = banks_[bank_index];
    const Time at_bank = arrival + ctrl_latency_;

    switch (type) {
      case TransactionType::kRead64:
        ++reads_;
        return bank.schedule(at_bank, AccessKind::kRead, scale, row).complete;
      case TransactionType::kWrite64:
        ++writes_;
        return bank.schedule(at_bank, AccessKind::kWrite, scale, row).complete;
      case TransactionType::kPimNoReturn:
      case TransactionType::kPimWithReturn: {
        // The FU is shared by all banks of the vault; serialize on it.
        const Time fu_start = std::max(at_bank, fu_ready_at_);
        const auto s = bank.schedule(fu_start, AccessKind::kPimRmw, scale, row);
        fu_ready_at_ = s.start + fu_latency_;
        ++pim_ops_;
        return s.complete;
      }
    }
    COOLPIM_ASSERT_MSG(false, "unhandled transaction type");
    return arrival;
  }

  /// Transactions serviced so far, by kind.
  [[nodiscard]] std::uint64_t reads() const { return reads_; }
  [[nodiscard]] std::uint64_t writes() const { return writes_; }
  [[nodiscard]] std::uint64_t pim_ops() const { return pim_ops_; }

  [[nodiscard]] std::size_t bank_count() const { return banks_.size(); }
  [[nodiscard]] const Bank& bank(std::size_t i) const { return banks_.at(i); }

 private:
  Time ctrl_latency_;
  Time fu_latency_;
  Time fu_ready_at_{Time::zero()};
  std::vector<Bank> banks_;
  std::uint64_t reads_{0};
  std::uint64_t writes_{0};
  std::uint64_t pim_ops_{0};
};

}  // namespace coolpim::hmc
