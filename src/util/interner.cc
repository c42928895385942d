#include "util/interner.h"

#include <cassert>

namespace gdlog {

uint32_t Interner::Intern(std::string_view s) {
  auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(strings_.size());
  strings_.emplace_back(s);
  index_.emplace(std::string_view(strings_.back()), id);
  return id;
}

uint32_t Interner::Lookup(std::string_view s) const {
  auto it = index_.find(s);
  if (it == index_.end()) return kNotFound;
  return it->second;
}

const std::string& Interner::Name(uint32_t id) const {
  assert(id < strings_.size());
  return strings_[id];
}

}  // namespace gdlog
