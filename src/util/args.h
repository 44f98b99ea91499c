#pragma once
// Minimal command-line flag parsing for examples and bench binaries.
//
// Supports --name=value plus boolean --flag; anything else is
// positional. allow_only() lets binaries reject typo'd flags, and the
// numeric getters reject values that are not wholly a number.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace latgossip {

class Args {
 public:
  Args(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& def) const;
  /// Throw std::invalid_argument naming the flag when its value is
  /// empty, has trailing characters, or is out of range (non-finite
  /// for get_double).
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def = false) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Throws std::invalid_argument if any parsed flag is not in `known`.
  void allow_only(const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace latgossip
