// Branch-free selection for data-dependent choices in the allocation
// kernels.
//
// A compiler is free to turn `c ? a : b` into a jump, and for doubles and
// for values just loaded from memory GCC usually does; when `c` depends
// on the data that jump mispredicts about half the time.  branchless()
// makes the same choice on the bits, so the result is `c ? a : b` bit for
// bit (signed zeros and NaNs included) with no branch on `c`.
#pragma once

#include <bit>
#include <cstdint>
#include <type_traits>

namespace rrf {

/// `c ? a : b` for any 8-byte trivially copyable T, computed with a mask.
template <class T>
T branchless(bool c, T a, T b) {
  static_assert(sizeof(T) == sizeof(std::uint64_t) &&
                std::is_trivially_copyable_v<T>);
  const std::uint64_t mask = std::uint64_t{0} - static_cast<std::uint64_t>(c);
  return std::bit_cast<T>((std::bit_cast<std::uint64_t>(a) & mask) |
                          (std::bit_cast<std::uint64_t>(b) & ~mask));
}

}  // namespace rrf
