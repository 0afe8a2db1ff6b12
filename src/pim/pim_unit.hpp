// In-vault PIM unit: a CRF interpreter driving one hmc::Vault.
//
// The unit models the vault-side instruction sequencer of the PIM-DRAM
// designs referenced in crf.hpp: it fetches and decodes one CRF instruction
// per decode cycle (PPC/LC state machine), and for each PIM instruction
// issues an atomic RMW to a bank operand through the owning vault -- so FU
// serialization, bank occupancy and thermal derating all come from the same
// hmc::Vault/Bank timing the event-detailed hmc::Device uses.  Operand addresses
// follow a deterministic per-vault splitmix64 stream (graph-property
// accesses are effectively random across banks); a bank conflict is counted
// whenever the selected bank is still busy at issue time.
//
// The unit keeps no trace of its own: execute() appends one CrfTraceEntry
// per decoded instruction only to a sink its caller passes, so the
// pim-vault backend's replay (which passes none) records nothing.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "hmc/vault.hpp"
#include "pim/crf.hpp"

namespace coolpim::pim {

/// One executed CRF instruction, for determinism checks (same seed ==> the
/// byte-identical sequence).  Times are picoseconds to keep equality exact;
/// `pim` and `bank` keep their defaults and complete_ps == issue_ps for
/// control-flow instructions.
struct CrfTraceEntry {
  std::uint32_t vault{0};
  std::uint32_t ppc{0};
  CrfOpcode op{CrfOpcode::kNop};
  hmc::PimOpcode pim{hmc::PimOpcode::kSignedAdd8};
  std::uint32_t bank{0};
  std::uint64_t issue_ps{0};
  std::uint64_t complete_ps{0};

  bool operator==(const CrfTraceEntry&) const = default;
};

/// Outcome of one program execution.
struct ExecStats {
  std::uint64_t pim_ops{0};        // operand RMWs issued
  std::uint64_t instructions{0};   // CRF instructions decoded (incl. control)
  std::uint64_t bank_conflicts{0}; // RMWs that found their bank busy
  Time done{Time::zero()};         // when the last RMW completed
};

class PimUnit {
 public:
  /// `vault` must outlive the unit.  `seed` fixes the operand stream.
  PimUnit(std::uint32_t vault_index, CrfProgram program, hmc::Vault& vault,
          std::uint64_t seed);

  /// Run one full program execution (trigger to EXIT) starting no earlier
  /// than `start`, with thermal service scale `scale` (1.0 nominal).  When
  /// `trace` is given, one entry per decoded instruction is appended to it.
  ExecStats execute(Time start, double scale, std::vector<CrfTraceEntry>* trace = nullptr);

  /// When the unit's decode stage frees (next execution can trigger).
  [[nodiscard]] Time ready_at() const { return decode_ready_; }

  [[nodiscard]] const CrfProgram& program() const { return program_; }

  /// Decode-stage cost per CRF instruction (one sequencer cycle).
  static constexpr Time kDecodeLatency = Time::ns(1.0);

 private:
  std::uint64_t next_random();

  std::uint32_t vault_index_;
  CrfProgram program_;
  hmc::Vault* vault_;
  std::uint64_t rng_state_;
  Time decode_ready_{Time::zero()};
};

}  // namespace coolpim::pim
