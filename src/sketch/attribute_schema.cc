#include "sketch/attribute_schema.h"

namespace ccf {

AttributeSchema AttributeSchema::Anonymous(int n) {
  std::vector<std::string> names;
  names.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::string name = "a";
    name += std::to_string(i);
    names.push_back(std::move(name));
  }
  return AttributeSchema(std::move(names));
}

Result<int> AttributeSchema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  return Status::KeyNotFound("no attribute named '" + name + "'");
}

}  // namespace ccf
