#include "algo/registry.hpp"

#include <algorithm>
#include <sstream>

#include "obs/recorder.hpp"
#include "support/check.hpp"

namespace ds::algo {

// Defined in builtin.cpp (the one file that knows every algorithm).
std::vector<Spec> make_builtin_specs();

const std::vector<Spec>& all_specs() {
  static const std::vector<Spec> specs = [] {
    std::vector<Spec> list = make_builtin_specs();
    std::sort(list.begin(), list.end(),
              [](const Spec& a, const Spec& b) { return a.name < b.name; });
    for (std::size_t i = 0; i + 1 < list.size(); ++i) {
      DS_CHECK_MSG(list[i].name != list[i + 1].name,
                   "duplicate algorithm registration: " + list[i].name);
    }
    for (const Spec& s : list) {
      DS_CHECK_MSG(!s.name.empty() && s.run != nullptr,
                   "incomplete algorithm registration");
    }
    return list;
  }();
  return specs;
}

std::vector<std::string> spec_names() {
  std::vector<std::string> names;
  names.reserve(all_specs().size());
  for (const Spec& s : all_specs()) names.push_back(s.name);
  return names;
}

const Spec* try_find(const std::string& name) {
  for (const Spec& s : all_specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const Spec& find(const std::string& name) {
  const Spec* spec = try_find(name);
  if (spec == nullptr) {
    std::string msg = "unknown algorithm '" + name + "'";
    const std::string hint = suggest(name, spec_names());
    if (!hint.empty()) msg += "; did you mean '" + hint + "'?";
    msg += " (known: ";
    const auto names = spec_names();
    for (std::size_t i = 0; i < names.size(); ++i) {
      msg += (i == 0 ? "" : ", ") + names[i];
    }
    msg += ")";
    DS_CHECK_MSG(false, msg);
  }
  return *spec;
}

Result execute(const Spec& spec, const RunContext& ctx) {
  DS_CHECK_MSG(spec.capability == Capability::kAnyRuntime ||
                   ctx.sequential_runtime,
               "algorithm '" + spec.name +
                   "' is sequential-only (whole-graph algorithm); run it "
                   "with --runtime=sequential");
  if (spec.input == InputKind::kGeneralGraph) {
    DS_CHECK_MSG(ctx.graph != nullptr,
                 "algorithm '" + spec.name + "' needs a general graph input");
  } else {
    DS_CHECK_MSG(ctx.bipartite != nullptr,
                 "algorithm '" + spec.name + "' needs a bipartite input");
  }
  Result result = spec.run(ctx);
  // Spec entry points verify before returning (they throw otherwise), so a
  // normal return means the verifier accepted the output.
  result.verified = true;
  if (ctx.recorder != nullptr) {
    result.metrics = ctx.recorder->metrics().snapshot();
  }
  return result;
}

namespace {

std::string runtimes_cell(const Spec& s) {
  return s.capability == Capability::kAnyRuntime
             ? "sequential, parallel, tcp"
             : "sequential only";
}

std::string params_cell(const Spec& s) {
  if (s.params.empty()) return "—";
  std::string cell;
  for (const ParamSpec& p : s.params) {
    if (!cell.empty()) cell += ", ";
    cell += "`" + p.key + "`=" + (p.default_value.empty()
                                      ? std::string("\"\"")
                                      : p.default_value);
  }
  return cell;
}

}  // namespace

std::string names_listing(bool scalable_only) {
  std::ostringstream out;
  for (const Spec& s : all_specs()) {
    if (scalable_only && s.capability != Capability::kAnyRuntime) continue;
    out << s.name << " " << input_kind_name(s.input) << " "
        << (s.capability == Capability::kAnyRuntime ? "all" : "sequential")
        << "\n";
  }
  return out.str();
}

std::string catalog_markdown() {
  std::ostringstream out;
  out << "| Algorithm | Problem | Input | Parameters (default) | Runtimes | "
         "Verifier |\n";
  out << "| --- | --- | --- | --- | --- | --- |\n";
  for (const Spec& s : all_specs()) {
    out << "| `" << s.name << "` | " << s.description << " | "
        << input_kind_name(s.input) << " | " << params_cell(s) << " | "
        << runtimes_cell(s) << " | `" << s.verifier << "` |\n";
  }
  return out.str();
}

std::string usage_catalog(bool scalable_only) {
  std::ostringstream out;
  for (const Spec& s : all_specs()) {
    if (scalable_only && s.capability != Capability::kAnyRuntime) continue;
    out << "  " << s.name << " (" << input_kind_name(s.input) << ", "
        << (s.capability == Capability::kAnyRuntime ? "all runtimes"
                                                    : "sequential only")
        << ")\n      " << s.description << "\n";
    for (const ParamSpec& p : s.params) {
      out << "      --param=" << p.key << "=<" << param_type_name(p.type)
          << ", default " << (p.default_value.empty() ? "\"\""
                                                      : p.default_value)
          << ">  " << p.help << "\n";
    }
  }
  return out.str();
}

}  // namespace ds::algo
