// Byte-for-byte response checking.
#ifndef PERFBENCH_COMPARE_H_
#define PERFBENCH_COMPARE_H_

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace perfbench {

/// Offset of the first byte where `actual` differs from `expected`
/// (a length difference counts at the shorter length); nullopt when the
/// two are identical.
std::optional<size_t> FirstDifference(std::string_view expected,
                                      std::string_view actual);

/// A short human-readable description of the first difference, for the
/// run log: offset plus a window of each side around it.
std::string DescribeDifference(std::string_view expected,
                               std::string_view actual);

}  // namespace perfbench

#endif  // PERFBENCH_COMPARE_H_
