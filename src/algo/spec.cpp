#include "algo/spec.hpp"

#include <algorithm>
#include <sstream>

#include "support/check.hpp"
#include "support/fnv.hpp"

namespace ds::algo {

namespace {

/// Classic Levenshtein distance, early-exited at `cap + 1`.
std::size_t edit_distance(const std::string& a, const std::string& b,
                          std::size_t cap) {
  if (a.size() > b.size() + cap || b.size() > a.size() + cap) return cap + 1;
  std::vector<std::size_t> prev(b.size() + 1);
  std::vector<std::size_t> cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    std::size_t row_min = cur[0];
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
      row_min = std::min(row_min, cur[j]);
    }
    if (row_min > cap) return cap + 1;
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

bool parses_as_int(const std::string& s) {
  if (s.empty()) return false;
  std::size_t i = (s[0] == '-' || s[0] == '+') ? 1 : 0;
  if (i == s.size()) return false;
  for (; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9') return false;
  }
  return true;
}

bool parses_as_double(const std::string& s) {
  if (s.empty()) return false;
  std::size_t pos = 0;
  try {
    (void)std::stod(s, &pos);
  } catch (const std::exception&) {
    return false;
  }
  return pos == s.size();
}

bool flag_value(const std::string& s, bool* out) {
  if (s == "1" || s == "true" || s == "yes" || s == "on") {
    *out = true;
    return true;
  }
  if (s == "0" || s == "false" || s == "no" || s == "off") {
    *out = false;
    return true;
  }
  return false;
}

std::string joined_keys(const std::vector<ParamSpec>& schema) {
  std::string keys;
  for (const ParamSpec& p : schema) {
    if (!keys.empty()) keys += ", ";
    keys += p.key;
  }
  return keys.empty() ? "(none)" : keys;
}

}  // namespace

std::string param_type_name(ParamType type) {
  switch (type) {
    case ParamType::kInt:
      return "int";
    case ParamType::kDouble:
      return "double";
    case ParamType::kFlag:
      return "flag";
    case ParamType::kString:
      return "string";
  }
  return "unknown";
}

std::string suggest(const std::string& got,
                    const std::vector<std::string>& candidates) {
  // A typo plausibly within 1 edit for short names, scaling to 1/3 of the
  // length for longer ones.
  const std::size_t cap =
      std::max<std::size_t>(1, std::min<std::size_t>(3, got.size() / 3));
  std::string best;
  std::size_t best_dist = cap + 1;
  for (const std::string& c : candidates) {
    const std::size_t d = edit_distance(got, c, cap);
    if (d < best_dist) {
      best_dist = d;
      best = c;
    }
  }
  return best;
}

std::vector<std::pair<std::string, std::string>> parse_param_overrides(
    const std::vector<std::string>& items) {
  std::vector<std::pair<std::string, std::string>> overrides;
  overrides.reserve(items.size());
  for (const std::string& item : items) {
    const auto eq = item.find('=');
    if (eq == std::string::npos) {
      overrides.emplace_back(item, "1");  // bare --param=flag
    } else {
      overrides.emplace_back(item.substr(0, eq), item.substr(eq + 1));
    }
  }
  return overrides;
}

Params Params::parse(
    const std::vector<ParamSpec>& schema,
    const std::vector<std::pair<std::string, std::string>>& overrides) {
  Params params;
  params.values_.reserve(schema.size());
  for (const ParamSpec& p : schema) {
    params.values_.emplace_back(p.key, p.default_value);
  }
  std::vector<std::string> keys;
  keys.reserve(schema.size());
  for (const ParamSpec& p : schema) keys.push_back(p.key);
  for (const auto& [key, value] : overrides) {
    const auto spec_it =
        std::find_if(schema.begin(), schema.end(),
                     [&](const ParamSpec& p) { return p.key == key; });
    if (spec_it == schema.end()) {
      std::string msg = "unknown parameter '" + key + "'";
      const std::string hint = suggest(key, keys);
      if (!hint.empty()) msg += "; did you mean '" + hint + "'?";
      msg += " (known: " + joined_keys(schema) + ")";
      DS_CHECK_MSG(false, msg);
    }
    std::string stored = value;
    switch (spec_it->type) {
      case ParamType::kInt:
        DS_CHECK_MSG(parses_as_int(value),
                     "parameter '" + key + "' expects an int, got '" + value +
                         "'");
        DS_CHECK_MSG(std::stoll(value) >= spec_it->min_value,
                     "parameter '" + key + "' must be >= " +
                         std::to_string(spec_it->min_value) + ", got " +
                         value);
        break;
      case ParamType::kDouble:
        DS_CHECK_MSG(parses_as_double(value),
                     "parameter '" + key + "' expects a double, got '" +
                         value + "'");
        break;
      case ParamType::kFlag: {
        bool flag = false;
        DS_CHECK_MSG(flag_value(value, &flag),
                     "parameter '" + key + "' expects a flag (0/1), got '" +
                         value + "'");
        // Assigning via a std::string temporary: the short-char-literal
        // operator= trips GCC 12's bogus -Wrestrict (PR105329).
        stored = std::string(flag ? "1" : "0");
        break;
      }
      case ParamType::kString:
        break;
    }
    const auto it = std::find_if(
        params.values_.begin(), params.values_.end(),
        [&](const auto& kv) { return kv.first == key; });
    it->second = stored;
  }
  return params;
}

const std::string& Params::raw(const std::string& key) const {
  const auto it =
      std::find_if(values_.begin(), values_.end(),
                   [&](const auto& kv) { return kv.first == key; });
  DS_CHECK_MSG(it != values_.end(),
               "parameter '" + key + "' is not in this spec's schema");
  return it->second;
}

long long Params::get_int(const std::string& key) const {
  return std::stoll(raw(key));
}

double Params::get_double(const std::string& key) const {
  return std::stod(raw(key));
}

bool Params::get_flag(const std::string& key) const { return raw(key) == "1"; }

const std::string& Params::get(const std::string& key) const {
  return raw(key);
}

std::string input_kind_name(InputKind input) {
  return input == InputKind::kGeneralGraph ? "general" : "bipartite";
}

std::uint64_t Result::output_digest() const {
  Fnv1a fnv{kFnvShortBasis};
  fnv.words(output_words.data(), output_words.size());
  return fnv.h;
}

std::string Result::brief() const {
  std::ostringstream out;
  for (const auto& [key, value] : summary) {
    out << key << "=" << value << " ";
  }
  out << "verified=" << (verified ? "yes" : "no") << " ";
  out << "output-digest=" << std::hex << output_digest();
  return out.str();
}

}  // namespace ds::algo
