#include "util/args.h"

#include <charconv>
#include <cmath>
#include <stdexcept>

namespace latgossip {

Args::Args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else {
      flags_[arg] = "true";
    }
  }
}

bool Args::has(const std::string& name) const {
  return flags_.count(name) != 0;
}

std::string Args::get(const std::string& name, const std::string& def) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

namespace {

/// The whole of `text` as a T, or a throw naming the flag: an empty
/// value, trailing characters and out-of-range or non-finite values are
/// all errors.
template <typename T>
T parse_number(const std::string& name, const std::string& text,
               const char* what) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end ||
      !std::isfinite(static_cast<double>(value)))
    throw std::invalid_argument("--" + name + "=" + text + ": expected " +
                                what);
  return value;
}

}  // namespace

std::int64_t Args::get_int(const std::string& name, std::int64_t def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  return parse_number<std::int64_t>(name, it->second, "an integer");
}

double Args::get_double(const std::string& name, double def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  return parse_number<double>(name, it->second, "a finite number");
}

bool Args::get_bool(const std::string& name, bool def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

void Args::allow_only(const std::vector<std::string>& known) const {
  for (const auto& [name, value] : flags_) {
    (void)value;
    bool ok = false;
    for (const auto& k : known)
      if (k == name) {
        ok = true;
        break;
      }
    if (!ok) throw std::invalid_argument("unknown flag --" + name);
  }
}

}  // namespace latgossip
