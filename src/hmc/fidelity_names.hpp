// Exported fidelity-tier name constants -- the single source of truth for
// how the simulator's fidelity vocabulary is spelled.
//
// Two vocabularies exist: the HMC service backends selected by --hmc-backend /
// COOLPIM_HMC_BACKEND (hmc/backend.hpp registry), and the fleet tier's node
// thermal-integration fidelity (fleet::ThermalFidelity).  Every CLI flag,
// error message, bench JSON field and docs table spells these names from the
// constants below, obs/names.hpp-style; DESIGN.md section 15 and
// docs/ARCHITECTURE.md are pinned against them by tests/test_backends.cpp,
// so renaming a tier here without updating the docs fails the suite.
#pragma once

#include <string_view>

namespace coolpim::hmc::fidelity {

// ---- HMC service backends (--hmc-backend vocabulary) -----------------------
/// Analytic epoch-level service model (hmc::ThroughputModel): op counts per
/// ~10 us epoch, link FLIT + internal DRAM caps.  The default, and the
/// identity baseline for every golden result.
inline constexpr std::string_view kEpochThroughput = "epoch-throughput";
/// Instruction-level PIM vault model (pim::PimVaultBackend): CRF
/// fetch/decode with program/loop counters, per-bank operand conflicts.
inline constexpr std::string_view kPimVault = "pim-vault";

inline constexpr std::string_view kAllBackends[] = {kEpochThroughput, kPimVault};

// ---- Fleet node thermal fidelity (fleet::ThermalFidelity) ------------------
inline constexpr std::string_view kFleetRc = "rc";
inline constexpr std::string_view kFleetGrid = "grid";

}  // namespace coolpim::hmc::fidelity
