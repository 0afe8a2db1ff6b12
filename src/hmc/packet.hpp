// HMC packet/FLIT model (paper Table I, HMC 2.0 spec).
//
// Link traffic is packetized into 128-bit FLITs.  A 64-byte READ costs
// 1 request FLIT + 5 response FLITs (header/tail + 4 data FLITs); a WRITE the
// reverse; PIM operations carry an immediate in the request (2 FLITs) and
// return a 1-FLIT (no data) or 2-FLIT (with data) response.  Response tails
// carry a 7-bit error status; ERRSTAT = 0x01 signals a thermal warning.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/error.hpp"

namespace coolpim::hmc {

inline constexpr std::size_t kFlitBytes = 16;  // 128-bit FLIT

enum class TransactionType : std::uint8_t {
  kRead64,          // 64-byte read
  kWrite64,         // 64-byte write
  kPimNoReturn,     // PIM instruction, no data returned
  kPimWithReturn,   // PIM instruction returning the original data
};

struct FlitCost {
  std::uint32_t request;
  std::uint32_t response;

  [[nodiscard]] constexpr std::uint32_t total() const { return request + response; }
  [[nodiscard]] constexpr std::size_t total_bytes() const {
    return static_cast<std::size_t>(total()) * kFlitBytes;
  }
};

/// Table I.
[[nodiscard]] constexpr FlitCost flit_cost(TransactionType t) {
  switch (t) {
    case TransactionType::kRead64: return {1, 5};
    case TransactionType::kWrite64: return {5, 1};
    case TransactionType::kPimNoReturn: return {2, 1};
    case TransactionType::kPimWithReturn: return {2, 2};
  }
  // Unreachable; constexpr-friendly failure.
  return {0, 0};
}

/// Payload bytes moved between host and device by one transaction.
[[nodiscard]] constexpr std::size_t payload_bytes(TransactionType t) {
  switch (t) {
    case TransactionType::kRead64:
    case TransactionType::kWrite64: return 64;
    case TransactionType::kPimNoReturn: return 0;
    case TransactionType::kPimWithReturn: return 16;  // original operand data
  }
  return 0;
}

[[nodiscard]] constexpr std::string_view to_string(TransactionType t) {
  switch (t) {
    case TransactionType::kRead64: return "64-byte READ";
    case TransactionType::kWrite64: return "64-byte WRITE";
    case TransactionType::kPimNoReturn: return "PIM inst. without return";
    case TransactionType::kPimWithReturn: return "PIM inst. with return";
  }
  return "?";
}

/// Error-status field in the response tail (ERRSTAT[6:0]).
enum class ErrStat : std::uint8_t {
  kOk = 0x00,
  kThermalWarning = 0x01,  // operational temperature limit exceeded
};

/// A request as seen by the device front end.
struct Request {
  TransactionType type{TransactionType::kRead64};
  std::uint64_t address{0};
  std::uint32_t tag{0};
};

/// A response returned to the host.
struct Response {
  std::uint32_t tag{0};
  ErrStat errstat{ErrStat::kOk};
  bool atomic_success{true};  // PIM atomic-flag (always set on success)
};

}  // namespace coolpim::hmc
