// Tests for the vault controller model.
#include <gtest/gtest.h>

#include "common/error.hpp"

#include "hmc/vault.hpp"

namespace coolpim::hmc {
namespace {

TEST(VaultTest, BankCountFromConfig) {
  const HmcConfig cfg = hmc20_config();
  Vault vault{cfg};
  EXPECT_EQ(vault.bank_count(), cfg.banks_per_vault());
  EXPECT_EQ(vault.bank_count(), 16u);
}

TEST(VaultTest, IndependentBanksProceedInParallel) {
  Vault vault{hmc20_config()};
  const Time a = vault.service(Time::zero(), TransactionType::kRead64, 0, 1.0);
  const Time b = vault.service(Time::zero(), TransactionType::kRead64, 1, 1.0);
  // Different banks: both finish at the same (unqueued) time.
  EXPECT_EQ(a, b);
}

TEST(VaultTest, SameBankSerializes) {
  Vault vault{hmc20_config()};
  const Time a = vault.service(Time::zero(), TransactionType::kRead64, 0, 1.0);
  const Time b = vault.service(Time::zero(), TransactionType::kRead64, 0, 1.0);
  EXPECT_GT(b, a);
}

TEST(VaultTest, PimOpsSerializeOnTheFunctionalUnit) {
  Vault vault{hmc20_config()};
  // PIM ops to different banks still share the vault's single FU.
  const Time a = vault.service(Time::zero(), TransactionType::kPimNoReturn, 0, 1.0);
  const Time b = vault.service(Time::zero(), TransactionType::kPimNoReturn, 1, 1.0);
  EXPECT_GT(b, a);
  EXPECT_EQ(vault.pim_ops(), 2u);
}

TEST(VaultTest, StatsTrackKinds) {
  Vault vault{hmc20_config()};
  (void)vault.service(Time::zero(), TransactionType::kRead64, 0, 1.0);
  (void)vault.service(Time::zero(), TransactionType::kWrite64, 1, 1.0);
  (void)vault.service(Time::zero(), TransactionType::kPimWithReturn, 2, 1.0);
  EXPECT_EQ(vault.reads(), 1u);
  EXPECT_EQ(vault.writes(), 1u);
  EXPECT_EQ(vault.pim_ops(), 1u);
}

TEST(VaultTest, SameBankReadsQueueByWholeBankCycles) {
  // Closed page: the k-th read to one bank waits k full bank cycles
  // (tRAS + tRP = 41.25 ns), then pays controller + tRCD + tCL
  // (4 + 13.75 + 13.75 = 31.5 ns) like the unqueued first read.
  Vault vault{hmc20_config()};
  for (int k = 0; k < 10; ++k) {
    SCOPED_TRACE(k);
    const Time done = vault.service(Time::zero(), TransactionType::kRead64, 0, 1.0);
    EXPECT_EQ(done, Time::ns(31.5) + Time::ns(41.25) * k);
  }
  EXPECT_EQ(vault.reads(), 10u);
}

TEST(VaultTest, InvalidBankIndexAsserts) {
  Vault vault{hmc20_config()};
  EXPECT_THROW(vault.service(Time::zero(), TransactionType::kRead64, 999, 1.0), SimError);
}

}  // namespace
}  // namespace coolpim::hmc
