// Premultiplied state ids (DESIGN.md §6 #13).
//
// A dense transition table is row-major, `ncols` entries per state. Storing
// each target as its row offset (id * ncols) instead of its raw id lets a
// scan step with `s = table[s + col]`: the per-byte dependency chain is one
// add and one load, with no multiply on it. RowStride converts between the
// two forms where raw ids are still needed — contexts, accept hooks,
// artifacts — which is once per chunk or once per accept, never per byte.
#pragma once

#include <bit>
#include <cstdint>

namespace mfa::util {

/// Every premultiplied table stays below this many entries (states x
/// columns; for a D2FA also root rows x columns), so every row offset and
/// accept limit fits the 30 low bits a D2FA tag leaves. build_dfa() and
/// the loaders enforce it; the default state cap (2^20 x 256 = 2^28) is
/// below.
inline constexpr std::uint64_t kMaxRowOffsets = std::uint64_t{1} << 30;

class RowStride {
 public:
  constexpr RowStride() = default;
  /// `ncols` must be at least 1.
  constexpr explicit RowStride(std::uint32_t ncols)
      : ncols_(ncols),
        shift_(static_cast<std::uint32_t>(std::countr_zero(ncols))),
        inverse_(odd_inverse(ncols >> shift_)) {}

  [[nodiscard]] constexpr std::uint32_t ncols() const { return ncols_; }

  /// Row offset of raw state `id`.
  [[nodiscard]] constexpr std::uint32_t offset(std::uint32_t id) const {
    return id * ncols_;
  }

  /// Raw state id of row offset `offset`, an exact multiple of ncols: a
  /// shift by ncols' trailing zero bits, then a multiply by the inverse of
  /// its odd part mod 2^32. No division instruction runs.
  [[nodiscard]] constexpr std::uint32_t id(std::uint32_t offset) const {
    return (offset >> shift_) * inverse_;
  }

  /// True when `rows` rows of `ncols` entries stay below kMaxRowOffsets.
  [[nodiscard]] static constexpr bool fits(std::uint64_t rows, std::uint32_t ncols) {
    return rows * ncols < kMaxRowOffsets;
  }

 private:
  /// Inverse of odd `m` mod 2^32 by Newton's iteration x <- x(2 - mx):
  /// x = m is right in the low 3 bits (m*m = 1 mod 8), and each step
  /// doubles the correct bits (3, 6, 12, 24, 48).
  static constexpr std::uint32_t odd_inverse(std::uint32_t m) {
    std::uint32_t x = m;
    for (int i = 0; i < 4; ++i) x *= 2 - m * x;
    return x;
  }

  std::uint32_t ncols_ = 1;
  std::uint32_t shift_ = 0;
  std::uint32_t inverse_ = 1;
};

}  // namespace mfa::util
