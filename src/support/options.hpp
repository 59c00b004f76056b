#pragma once

/// \file options.hpp
/// Minimal command-line option parsing for experiment binaries.
/// Supports `--key=value` and `--flag` forms; anything else is rejected so
/// typos in sweep scripts fail loudly.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ds {

/// Parsed command-line options.
class Options {
 public:
  /// Parses argv. Throws ds::CheckError on malformed arguments.
  Options(int argc, const char* const* argv);

  /// Returns the value of `--key=...` or `fallback` if absent.
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;

  /// Integer-valued option. The whole value must parse: "7x" or a value
  /// outside the 64-bit range throws a ds::CheckError naming the flag.
  [[nodiscard]] long long get_int(const std::string& key,
                                  long long fallback) const;

  /// Double-valued option, parsed as strictly as `get_int`.
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;

  /// True if `--key` or `--key=...` was present.
  [[nodiscard]] bool has(const std::string& key) const;

  /// All values of repeated `--key=...` occurrences, in command-line order
  /// (`get` returns only the last one). Repeatable options — the algorithm
  /// registry's `--param=k=v` — read this.
  [[nodiscard]] std::vector<std::string> get_all(const std::string& key) const;

  /// The distinct keys present, in first-occurrence order — lets commands
  /// reject unknown flags with a suggestion instead of ignoring typos.
  [[nodiscard]] std::vector<std::string> keys() const;

  /// Seed convenience: `--seed=N`, default 1.
  [[nodiscard]] std::uint64_t seed() const;

 private:
  /// The last occurrence of `key`, or nullptr. (`get` semantics: repeated
  /// options override earlier ones.)
  [[nodiscard]] const std::string* last(const std::string& key) const;

  /// Every occurrence in command-line order; option counts are tiny, so
  /// the single-value getters just scan for the last match.
  std::vector<std::pair<std::string, std::string>> items_;
};

}  // namespace ds
