// Tests for the PIM instruction set definitions.
#include <gtest/gtest.h>

#include "hmc/pim.hpp"

namespace coolpim::hmc {
namespace {

TEST(PimTest, Classification) {
  EXPECT_EQ(classify(PimOpcode::kSignedAdd8), PimOpClass::kArithmetic);
  EXPECT_EQ(classify(PimOpcode::kSignedAdd16), PimOpClass::kArithmetic);
  EXPECT_EQ(classify(PimOpcode::kSwap), PimOpClass::kBitwise);
  EXPECT_EQ(classify(PimOpcode::kBitWrite), PimOpClass::kBitwise);
  EXPECT_EQ(classify(PimOpcode::kAnd), PimOpClass::kBoolean);
  EXPECT_EQ(classify(PimOpcode::kOr), PimOpClass::kBoolean);
  EXPECT_EQ(classify(PimOpcode::kCasEqual), PimOpClass::kComparison);
  EXPECT_EQ(classify(PimOpcode::kCasGreater), PimOpClass::kComparison);
  // GraphPIM floating-point extensions.
  EXPECT_EQ(classify(PimOpcode::kFpAdd), PimOpClass::kArithmetic);
  EXPECT_EQ(classify(PimOpcode::kFpMin), PimOpClass::kComparison);
}

TEST(PimTest, ReturningOpsUseFourFlitTransactions) {
  for (const auto op : {PimOpcode::kSwap, PimOpcode::kCasEqual, PimOpcode::kCasGreater}) {
    EXPECT_TRUE(returns_data(op));
    EXPECT_EQ(transaction_for(op), TransactionType::kPimWithReturn);
  }
  for (const auto op : {PimOpcode::kSignedAdd8, PimOpcode::kAnd, PimOpcode::kFpAdd}) {
    EXPECT_FALSE(returns_data(op));
    EXPECT_EQ(transaction_for(op), TransactionType::kPimNoReturn);
  }
}

TEST(PimTest, NamesAreUnique) {
  const PimOpcode all[] = {PimOpcode::kSignedAdd8, PimOpcode::kSignedAdd16, PimOpcode::kSwap,
                           PimOpcode::kBitWrite,   PimOpcode::kAnd,         PimOpcode::kOr,
                           PimOpcode::kCasEqual,   PimOpcode::kCasGreater,  PimOpcode::kFpAdd,
                           PimOpcode::kFpMin};
  for (const auto a : all) {
    for (const auto b : all) {
      if (a != b) {
        EXPECT_NE(to_string(a), to_string(b));
      }
    }
  }
}

TEST(PimTest, ClassNames) {
  EXPECT_EQ(to_string(PimOpClass::kArithmetic), "Arithmetic");
  EXPECT_EQ(to_string(PimOpClass::kComparison), "Comparison");
}

}  // namespace
}  // namespace coolpim::hmc
