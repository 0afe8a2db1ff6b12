#include "pim/pim_unit.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "hmc/pim.hpp"

namespace coolpim::pim {

namespace {

// splitmix64: tiny, deterministic, and well-distributed enough to spread
// operands across banks; the unit only needs an uncorrelated index stream.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

PimUnit::PimUnit(std::uint32_t vault_index, CrfProgram program, hmc::Vault& vault,
                 std::uint64_t seed)
    : vault_index_{vault_index}, program_{std::move(program)}, vault_{&vault} {
  program_.validate();
  // Decorrelate vault streams from one common seed.
  rng_state_ = seed ^ (0x632be59bd9b4e019ULL * (vault_index + 1));
}

std::uint64_t PimUnit::next_random() { return splitmix64(rng_state_); }

ExecStats PimUnit::execute(Time start, double scale, std::vector<CrfTraceEntry>* trace) {
  COOLPIM_REQUIRE(scale > 0.0, "PIM unit cannot execute while shut down");

  ExecStats stats;
  Time clock = std::max(start, decode_ready_);
  stats.done = clock;

  std::uint32_t lc = 0;
  std::size_t ppc = 0;
  const std::size_t bank_count = vault_->bank_count();
  // One execution updates one neighbour segment: consecutive destination
  // properties are address-interleaved across the vault's banks (the same
  // spreading hmc::AddressMap applies to regular traffic), so operands walk
  // the banks from a per-execution random base.  Conflicts arise when
  // successive executions' segments collide on a still-busy bank.
  const std::uint64_t segment = next_random();
  std::uint64_t op_idx = 0;
  bool running = true;
  while (running) {
    const CrfInstr& ins = program_.instrs[ppc];
    const std::uint32_t this_ppc = static_cast<std::uint32_t>(ppc);
    clock += kDecodeLatency;  // one sequencer cycle per fetched instruction
    ++stats.instructions;
    std::size_t bank = 0;
    Time complete = clock;

    switch (ins.op) {
      case CrfOpcode::kNop:
        ++ppc;
        break;
      case CrfOpcode::kPim: {
        bank = static_cast<std::size_t>((segment + op_idx) % bank_count);
        const std::uint64_t row = ((segment >> 8) + op_idx) % 64;
        ++op_idx;
        if (vault_->bank(bank).ready_at() > clock) ++stats.bank_conflicts;
        complete = vault_->service(clock, hmc::transaction_for(ins.pim), bank, scale, row);
        stats.done = std::max(stats.done, complete);
        ++stats.pim_ops;
        ++ppc;
        break;
      }
      case CrfOpcode::kJump:
        if (lc == 0) {
          lc = ins.imm1;
          if (lc == 0) {
            ++ppc;  // zero-trip loop
          } else {
            ppc = static_cast<std::size_t>(static_cast<std::int64_t>(ppc) + ins.imm0);
          }
        } else if (lc > 1) {
          --lc;
          ppc = static_cast<std::size_t>(static_cast<std::int64_t>(ppc) + ins.imm0);
        } else {
          lc = 0;
          ++ppc;
        }
        break;
      case CrfOpcode::kExit:
        running = false;  // PPC resets; the unit is ready for the next trigger
        break;
    }
    if (trace != nullptr) {
      CrfTraceEntry entry;
      entry.vault = vault_index_;
      entry.ppc = this_ppc;
      entry.op = ins.op;
      if (ins.op == CrfOpcode::kPim) entry.pim = ins.pim;
      entry.bank = static_cast<std::uint32_t>(bank);
      entry.issue_ps = static_cast<std::uint64_t>(clock.as_ps());
      entry.complete_ps = static_cast<std::uint64_t>(complete.as_ps());
      trace->push_back(entry);
    }
  }

  decode_ready_ = clock;
  stats.done = std::max(stats.done, clock);
  return stats;
}

}  // namespace coolpim::pim
