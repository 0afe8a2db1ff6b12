// PIM token pool (PTP) for software-based dynamic throttling (paper IV-B).
//
// The pool size bounds the number of concurrently running PIM-enabled CUDA
// blocks.  The thread-block manager requests a token before each launch
// (first-come-first-serve); on failure the block runs the non-PIM shadow
// kernel.  The thermal interrupt handler shrinks the pool:
//     PTP_Size = min(PTP_Size - CF, #issuedTokens)
// so the new bound takes effect as running blocks retire their tokens.
#pragma once

#include <cstdint>

#include "common/error.hpp"

namespace coolpim::control {

class TokenPool {
 public:
  explicit TokenPool(std::uint32_t initial_size) : size_{initial_size} {}

  /// Try to take a token for a launching PIM-enabled block.
  [[nodiscard]] bool try_acquire() {
    if (issued_ >= size_) return false;
    ++issued_;
    ++total_grants_;
    return true;
  }

  /// Return a token when a PIM-enabled block completes.
  void release() {
    COOLPIM_ASSERT_MSG(issued_ > 0, "token released that was never issued");
    --issued_;
  }

  /// Thermal-interrupt reduction by the control factor.
  void shrink(std::uint32_t control_factor) {
    const std::uint32_t reduced = size_ > control_factor ? size_ - control_factor : 0;
    size_ = std::min(reduced, issued_);
    ++shrink_count_;
  }

  [[nodiscard]] std::uint32_t size() const { return size_; }
  [[nodiscard]] std::uint32_t issued() const { return issued_; }
  [[nodiscard]] std::uint32_t available() const { return issued_ < size_ ? size_ - issued_ : 0; }
  [[nodiscard]] std::uint64_t total_grants() const { return total_grants_; }
  [[nodiscard]] std::uint32_t shrink_count() const { return shrink_count_; }

 private:
  std::uint32_t size_;
  std::uint32_t issued_{0};
  std::uint64_t total_grants_{0};
  std::uint32_t shrink_count_{0};
};

}  // namespace coolpim::control
