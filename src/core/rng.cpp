#include "fbdcsim/core/rng.h"

namespace fbdcsim::core {

namespace {
constexpr std::size_t kN = Mt19937_64::kStateWords;
constexpr std::size_t kM = 156;
constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;

/// One twisted word: the upper 33 bits of `hi` joined to the lower 31 of
/// `lo`, shifted, xored with the matrix when its low bit is set, and xored
/// into `far`. The matrix is selected by a mask, not a branch: the low bit
/// is random, so a branch mispredicts on half the words.
constexpr std::uint64_t twisted(std::uint64_t far, std::uint64_t hi, std::uint64_t lo) {
  const std::uint64_t y = (hi & kUpperMask) | (lo & kLowerMask);
  return far ^ (y >> 1) ^ ((std::uint64_t{0} - (y & 1)) & kMatrixA);
}
}  // namespace

Mt19937_64::Mt19937_64(result_type seed) : next_{kN} {
  state_[0] = seed;
  for (std::size_t i = 1; i < kN; ++i) {
    const std::uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::twist() {
  // Words below n - m read their far term ahead, words from n - m on read it
  // from the already-twisted front; the last word wraps to word 0.
  for (std::size_t k = 0; k < kN - kM; ++k) {
    state_[k] = twisted(state_[k + kM], state_[k], state_[k + 1]);
  }
  for (std::size_t k = kN - kM; k < kN - 1; ++k) {
    state_[k] = twisted(state_[k + kM - kN], state_[k], state_[k + 1]);
  }
  state_[kN - 1] = twisted(state_[kM - 1], state_[kN - 1], state_[0]);
  next_ = 0;
}

}  // namespace fbdcsim::core
