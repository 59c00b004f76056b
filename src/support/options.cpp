#include "support/options.hpp"

#include <algorithm>
#include <charconv>
#include <string>
#include <system_error>

#include "support/check.hpp"

namespace ds {

Options::Options(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string full = argv[i];
    // google-benchmark binaries pass their own --benchmark_* flags through;
    // accept anything that looks like --key or --key=value.
    DS_CHECK_MSG(full.rfind("--", 0) == 0, "unrecognized argument: " + full);
    const std::string arg = full.substr(2);
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      items_.emplace_back(arg, std::string("1"));
    } else {
      items_.emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
    }
  }
}

const std::string* Options::last(const std::string& key) const {
  const std::string* found = nullptr;
  for (const auto& [k, v] : items_) {
    if (k == key) found = &v;
  }
  return found;
}

std::string Options::get(const std::string& key,
                         const std::string& fallback) const {
  const std::string* value = last(key);
  return value == nullptr ? fallback : *value;
}

namespace {

/// Parses all of `text` as a T, or throws naming the flag: a trailing
/// "x" or an out-of-range value must not pass as a number.
template <typename T>
T parse_number(const std::string& key, const std::string& text,
               const char* what) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  DS_CHECK_MSG(ec == std::errc() && ptr == end,
               "--" + key + "=" + text + " is not " + what);
  return value;
}

}  // namespace

long long Options::get_int(const std::string& key, long long fallback) const {
  const std::string* value = last(key);
  if (value == nullptr) return fallback;
  return parse_number<long long>(key, *value, "a 64-bit integer");
}

double Options::get_double(const std::string& key, double fallback) const {
  const std::string* value = last(key);
  if (value == nullptr) return fallback;
  return parse_number<double>(key, *value, "a number");
}

bool Options::has(const std::string& key) const {
  return last(key) != nullptr;
}

std::vector<std::string> Options::get_all(const std::string& key) const {
  std::vector<std::string> values;
  for (const auto& [k, v] : items_) {
    if (k == key) values.push_back(v);
  }
  return values;
}

std::vector<std::string> Options::keys() const {
  std::vector<std::string> keys;
  for (const auto& [k, v] : items_) {
    if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
      keys.push_back(k);
    }
  }
  return keys;
}

std::uint64_t Options::seed() const {
  return static_cast<std::uint64_t>(get_int("seed", 1));
}

}  // namespace ds
