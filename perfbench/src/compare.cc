#include "compare.h"

#include <algorithm>

namespace perfbench {

std::optional<size_t> FirstDifference(std::string_view expected,
                                      std::string_view actual) {
  const size_t n = std::min(expected.size(), actual.size());
  for (size_t i = 0; i < n; ++i) {
    if (expected[i] != actual[i]) return i;
  }
  if (expected.size() != actual.size()) return n;
  return std::nullopt;
}

std::string DescribeDifference(std::string_view expected,
                               std::string_view actual) {
  auto at = FirstDifference(expected, actual);
  if (!at) return "identical";
  const size_t from = *at > 20 ? *at - 20 : 0;
  auto window = [&](std::string_view s) {
    return from >= s.size() ? std::string()
                            : std::string(s.substr(from, 60));
  };
  return "differs at byte " + std::to_string(*at) + " (expected " +
         std::to_string(expected.size()) + " bytes, got " +
         std::to_string(actual.size()) + "): expected ..." +
         window(expected) + "... got ..." + window(actual) + "...";
}

}  // namespace perfbench
