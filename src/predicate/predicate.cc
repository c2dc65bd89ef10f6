#include "predicate/predicate.h"

#include <algorithm>

namespace ccf {

Predicate Predicate::Equals(int attr_index, uint64_t value) {
  Predicate p;
  p.terms_.push_back(AttributeTerm{attr_index, {value}});
  return p;
}

Predicate Predicate::In(int attr_index, std::vector<uint64_t> values) {
  Predicate p;
  p.terms_.push_back(AttributeTerm{attr_index, std::move(values)});
  return p;
}

Predicate& Predicate::AndEquals(int attr_index, uint64_t value) {
  terms_.push_back(AttributeTerm{attr_index, {value}});
  return *this;
}

Predicate& Predicate::AndIn(int attr_index, std::vector<uint64_t> values) {
  terms_.push_back(AttributeTerm{attr_index, std::move(values)});
  return *this;
}

bool Predicate::Matches(std::span<const uint64_t> attrs) const {
  for (const AttributeTerm& term : terms_) {
    uint64_t v = attrs[static_cast<size_t>(term.attr_index)];
    if (std::find(term.values.begin(), term.values.end(), v) ==
        term.values.end()) {
      return false;
    }
  }
  return true;
}

std::string Predicate::ToString() const {
  if (terms_.empty()) return "TRUE";
  std::string out;
  for (size_t t = 0; t < terms_.size(); ++t) {
    if (t > 0) out += " AND ";
    const AttributeTerm& term = terms_[t];
    out += "a";
    out += std::to_string(term.attr_index);
    if (term.values.size() == 1) {
      out += "=";
      out += std::to_string(term.values[0]);
    } else {
      out += " IN (";
      for (size_t i = 0; i < term.values.size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string(term.values[i]);
      }
      out += ")";
    }
  }
  return out;
}

}  // namespace ccf
