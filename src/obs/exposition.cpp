#include "obs/exposition.hpp"

#include <cstdint>
#include <cstdio>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <vector>

#include "obs/publish.hpp"

namespace ds::obs {

namespace {

/// The published metrics with their slots aggregated.
std::vector<MetricSnapshot> aggregated(const PublishedSnapshot& snap) {
  std::vector<MetricSnapshot> out;
  out.reserve(snap.metrics.size());
  for (const PublishedMetric& pm : snap.metrics) out.push_back(pm.aggregate());
  return out;
}

std::string html_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string mean_of(const MetricSnapshot& s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", s.mean());
  return buf;
}

/// Gauge values render signed where the name demands it (clock offsets).
std::string gauge_value(const MetricSnapshot& s) {
  if (signed_gauge_name(s.name)) {
    return std::to_string(static_cast<std::int64_t>(s.value()));
  }
  return std::to_string(s.value());
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_metrics_json(
    std::ostream& out,
    const std::vector<std::pair<std::string, std::string>>& context,
    const std::vector<MetricSnapshot>& metrics) {
  out << "{\n  \"context\": {";
  for (std::size_t i = 0; i < context.size(); ++i) {
    if (i > 0) out << ",";
    out << "\n    \"" << json_escape(context[i].first) << "\": \""
        << json_escape(context[i].second) << "\"";
  }
  out << (context.empty() ? "}" : "\n  }");
  const auto write_section = [&](const char* title, Kind kind) {
    out << ",\n  \"" << title << "\": {";
    bool first = true;
    for (const MetricSnapshot& s : metrics) {
      if (s.kind != kind) continue;
      if (!first) out << ",";
      first = false;
      out << "\n    \"" << json_escape(s.name) << "\": ";
      if (kind == Kind::kHistogram) {
        char mean[32];
        std::snprintf(mean, sizeof(mean), "%.3f", s.mean());
        out << "{\"count\": " << s.count << ", \"sum\": " << s.sum
            << ", \"min\": " << (s.count == 0 ? 0 : s.min)
            << ", \"max\": " << s.max << ", \"mean\": " << mean << "}";
      } else if (kind == Kind::kGauge) {
        out << gauge_value(s);
      } else {
        out << s.value();
      }
    }
    out << (first ? "}" : "\n  }");
  };
  write_section("counters", Kind::kCounter);
  write_section("gauges", Kind::kGauge);
  write_section("histograms", Kind::kHistogram);
  out << "\n}\n";
}

std::vector<PhaseRatios> derived_perf(
    const std::vector<MetricSnapshot>& metrics) {
  struct Totals {
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t cache_refs = 0;
    std::uint64_t cache_misses = 0;
  };
  std::map<std::string, Totals> phases;
  for (const MetricSnapshot& s : metrics) {
    if (s.kind != Kind::kCounter || s.name.rfind("perf.", 0) != 0) continue;
    const std::size_t dot = s.name.rfind('.');
    if (dot <= 5) continue;
    const std::string field = s.name.substr(dot + 1);
    Totals& t = phases[s.name.substr(5, dot - 5)];
    if (field == "cycles") t.cycles = s.sum;
    if (field == "instructions") t.instructions = s.sum;
    if (field == "cache_refs") t.cache_refs = s.sum;
    if (field == "cache_misses") t.cache_misses = s.sum;
  }
  std::vector<PhaseRatios> out;
  for (const auto& [phase, t] : phases) {
    if (t.cycles == 0) continue;
    PhaseRatios r;
    r.phase = phase;
    r.cycles = t.cycles;
    r.instructions = t.instructions;
    r.ipc = static_cast<double>(t.instructions) / static_cast<double>(t.cycles);
    if (t.cache_refs > 0) {
      r.cache_miss_rate = static_cast<double>(t.cache_misses) /
                          static_cast<double>(t.cache_refs);
    }
    out.push_back(std::move(r));
  }
  return out;
}

std::string prometheus_name(const std::string& name) {
  std::string out = "distsplit_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

void write_prometheus(std::ostream& out, const SnapshotPublisher& pub) {
  PublishedSnapshot snap;
  const bool have = pub.read(snap);

  std::set<std::string> emitted;
  const auto type_line = [&](const std::string& family, const char* type) {
    // The exposition format forbids repeating a family; a mangling
    // collision (a.b vs a_b) would otherwise produce one.
    if (!emitted.insert(family).second) return false;
    out << "# TYPE " << family << " " << type << "\n";
    return true;
  };

  // Synthesized series first: the run's pulse, present even when the
  // underlying registry is empty.
  type_line("distsplit_rounds_total", "counter");
  out << "distsplit_rounds_total " << (have ? snap.rounds : 0) << "\n";
  type_line("distsplit_publishes_total", "counter");
  out << "distsplit_publishes_total " << pub.publishes() << "\n";
  type_line("distsplit_health", "gauge");
  out << "distsplit_health "
      << static_cast<unsigned>(static_cast<std::uint8_t>(pub.health()))
      << "\n";

  if (!have) return;
  for (const PublishedMetric& pm : snap.metrics) {
    const MetricSnapshot agg = pm.aggregate();
    switch (pm.kind) {
      case Kind::kCounter: {
        const std::string family = prometheus_name(pm.name) + "_total";
        if (!type_line(family, "counter")) break;
        if (pm.cells.size() == 1) {
          out << family << " " << agg.sum << "\n";
        } else {
          // Multi-slot counters keep their slots: slot = peer rank for the
          // tcp.* transport counters.
          for (std::size_t s = 0; s < pm.cells.size(); ++s) {
            out << family << "{slot=\"" << s << "\"} " << pm.cells[s].sum
                << "\n";
          }
        }
        break;
      }
      case Kind::kGauge: {
        const std::string family = prometheus_name(pm.name);
        if (!type_line(family, "gauge")) break;
        out << family << " " << gauge_value(agg) << "\n";
        break;
      }
      case Kind::kHistogram: {
        const std::string family = prometheus_name(pm.name);
        if (!type_line(family, "summary")) break;
        out << family << "_sum " << agg.sum << "\n";
        out << family << "_count " << agg.count << "\n";
        if (type_line(family + "_min", "gauge")) {
          out << family << "_min " << (agg.count == 0 ? 0 : agg.min) << "\n";
        }
        if (type_line(family + "_max", "gauge")) {
          out << family << "_max " << agg.max << "\n";
        }
        break;
      }
    }
  }

  // Derived per-phase hardware families, synthesized from the raw
  // `perf.<phase>.*` counters: one labeled sample per phase. Absent entirely
  // when the kernel refused the counter group — a fallback run must never
  // expose a fake 0.0 IPC.
  const std::vector<PhaseRatios> ratios = derived_perf(aggregated(snap));
  bool ipc_family = false;
  bool miss_family = false;
  for (const PhaseRatios& r : ratios) {
    if (!ipc_family) ipc_family = type_line("distsplit_phase_ipc", "gauge");
    char v[32];
    std::snprintf(v, sizeof(v), "%.4f", r.ipc);
    out << "distsplit_phase_ipc{phase=\"" << r.phase << "\"} " << v << "\n";
  }
  for (const PhaseRatios& r : ratios) {
    if (!r.cache_miss_rate) continue;
    if (!miss_family) {
      miss_family = type_line("distsplit_phase_cache_miss_rate", "gauge");
    }
    char v[32];
    std::snprintf(v, sizeof(v), "%.6f", *r.cache_miss_rate);
    out << "distsplit_phase_cache_miss_rate{phase=\"" << r.phase << "\"} "
        << v << "\n";
  }
}

void write_snapshot_json(std::ostream& out, const SnapshotPublisher& pub) {
  PublishedSnapshot snap;
  const bool have = pub.read(snap);
  std::vector<std::pair<std::string, std::string>> context = pub.info();
  context.emplace_back("health", health_name(pub.health()));
  context.emplace_back("rounds", std::to_string(have ? snap.rounds : 0));
  context.emplace_back("publishes", std::to_string(pub.publishes()));
  write_metrics_json(out, context,
                     have ? aggregated(snap) : std::vector<MetricSnapshot>{});
}

void write_runs_json(std::ostream& out, const SnapshotPublisher& pub) {
  const auto hex_or_empty = [](std::uint64_t digest) {
    if (digest == 0) return std::string();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(digest));
    return std::string(buf);
  };
  const std::vector<RunRecord> runs = pub.history();
  out << "{\n  \"health\": \"" << health_name(pub.health())
      << "\",\n  \"runs\": [";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunRecord& r = runs[i];
    if (i > 0) out << ",";
    out << "\n    {\"id\": " << r.id << ", \"spec\": \""
        << json_escape(r.label) << "\", \"params_digest\": \""
        << hex_or_empty(r.params_digest) << "\", \"output_digest\": \""
        << hex_or_empty(r.output_digest) << "\", \"rounds\": " << r.rounds
        << ", \"wall_us\": " << r.wall_us << ", \"ok\": "
        << (r.ok ? "true" : "false") << "}";
  }
  out << (runs.empty() ? "]" : "\n  ]") << "\n}\n";
}

void write_status_html(std::ostream& out, const SnapshotPublisher& pub) {
  PublishedSnapshot snap;
  const bool have = pub.read(snap);
  const Health health = pub.health();
  const char* badge_color = health == Health::kAborted    ? "#c0392b"
                            : health == Health::kRunning  ? "#27ae60"
                            : health == Health::kCompleted ? "#2980b9"
                                                           : "#7f8c8d";

  out << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n"
         "<meta http-equiv=\"refresh\" content=\"2\">\n"
         "<title>distsplit status</title>\n<style>\n"
         "body{font-family:system-ui,sans-serif;margin:1.5em;color:#222}\n"
         "h1{font-size:1.3em} h2{font-size:1.05em;margin-top:1.4em}\n"
         "table{border-collapse:collapse;margin:0.4em 0}\n"
         "th,td{border:1px solid #ccc;padding:0.25em 0.6em;"
         "text-align:right;font-variant-numeric:tabular-nums}\n"
         "th{background:#f4f4f4} td:first-child,th:first-child"
         "{text-align:left;font-family:ui-monospace,monospace}\n"
         ".badge{display:inline-block;padding:0.15em 0.6em;border-radius:"
         "0.4em;color:#fff;font-weight:600;background:"
      << badge_color
      << "}\n"
         ".ok{color:#27ae60} .bad{color:#c0392b}\n</style></head><body>\n";
  out << "<h1>distsplit <span class=\"badge\">" << health_name(health)
      << "</span></h1>\n";
  out << "<p>rounds completed: <b>" << (have ? snap.rounds : 0)
      << "</b> &middot; snapshots published: <b>" << pub.publishes()
      << "</b></p>\n";

  const auto info = pub.info();
  if (!info.empty()) {
    out << "<h2>Run context</h2>\n<table>\n";
    for (const auto& [k, v] : info) {
      out << "<tr><td>" << html_escape(k) << "</td><td>" << html_escape(v)
          << "</td></tr>\n";
    }
    out << "</table>\n";
  }

  if (have) {
    // Per-phase RoundStats table: the phase.*.us summary histograms.
    out << "<h2>Per-phase timing (&micro;s)</h2>\n<table>\n"
           "<tr><th>phase</th><th>count</th><th>sum</th><th>min</th>"
           "<th>mean</th><th>max</th></tr>\n";
    for (const PublishedMetric& pm : snap.metrics) {
      if (pm.kind != Kind::kHistogram) continue;
      const MetricSnapshot s = pm.aggregate();
      out << "<tr><td>" << html_escape(s.name) << "</td><td>" << s.count
          << "</td><td>" << s.sum << "</td><td>"
          << (s.count == 0 ? 0 : s.min) << "</td><td>" << mean_of(s)
          << "</td><td>" << s.max << "</td></tr>\n";
    }
    out << "</table>\n";

    // Derived hardware-counter view: per-phase IPC and cache-miss rate.
    // Shown only when a live perf group recorded cycles; degraded runs get
    // an explicit note instead of a table of fake zeros.
    const std::vector<PhaseRatios> ratios = derived_perf(aggregated(snap));
    if (!ratios.empty()) {
      out << "<h2>Hardware counters (per phase)</h2>\n<table>\n"
             "<tr><th>phase</th><th>cycles</th><th>instructions</th>"
             "<th>IPC</th><th>cache miss %</th></tr>\n";
      for (const PhaseRatios& r : ratios) {
        char ipc[32];
        std::snprintf(ipc, sizeof(ipc), "%.3f", r.ipc);
        out << "<tr><td>" << html_escape(r.phase) << "</td><td>" << r.cycles
            << "</td><td>" << r.instructions << "</td><td>" << ipc
            << "</td><td>";
        if (r.cache_miss_rate) {
          char miss[32];
          std::snprintf(miss, sizeof(miss), "%.2f", 100.0 * *r.cache_miss_rate);
          out << miss;
        } else {
          out << "-";
        }
        out << "</td></tr>\n";
      }
      out << "</table>\n";
    } else {
      for (const PublishedMetric& pm : snap.metrics) {
        if (pm.name == "perf.hardware" && pm.kind == Kind::kGauge &&
            pm.aggregate().value() == 0) {
          out << "<p><i>Hardware counters unavailable "
                 "(perf_event_open refused — see perf_event_paranoid); "
                 "phase task-clock/context-switch counters below are from "
                 "the rusage fallback.</i></p>\n";
          break;
        }
      }
    }

    // Per-peer transport counters: every multi-slot counter keeps one slot
    // per peer rank.
    std::vector<const PublishedMetric*> per_peer;
    for (const PublishedMetric& pm : snap.metrics) {
      if (pm.kind == Kind::kCounter && pm.cells.size() > 1) {
        per_peer.push_back(&pm);
      }
    }
    if (!per_peer.empty()) {
      out << "<h2>Per-peer transport counters</h2>\n<table>\n<tr>"
             "<th>peer</th>";
      for (const PublishedMetric* pm : per_peer) {
        out << "<th>" << html_escape(pm->name) << "</th>";
      }
      out << "</tr>\n";
      const std::size_t peers = per_peer.front()->cells.size();
      for (std::size_t p = 0; p < peers; ++p) {
        out << "<tr><td>" << p << "</td>";
        for (const PublishedMetric* pm : per_peer) {
          out << "<td>" << (p < pm->cells.size() ? pm->cells[p].sum : 0)
              << "</td>";
        }
        out << "</tr>\n";
      }
      out << "</table>\n";
    }

    out << "<h2>Counters &amp; gauges</h2>\n<table>\n"
           "<tr><th>metric</th><th>kind</th><th>value</th></tr>\n";
    for (const PublishedMetric& pm : snap.metrics) {
      if (pm.kind == Kind::kHistogram) continue;
      if (pm.kind == Kind::kCounter && pm.cells.size() > 1) continue;
      const MetricSnapshot s = pm.aggregate();
      out << "<tr><td>" << html_escape(s.name) << "</td><td>"
          << kind_name(s.kind) << "</td><td>"
          << (s.kind == Kind::kGauge ? gauge_value(s)
                                     : std::to_string(s.value()))
          << "</td></tr>\n";
    }
    out << "</table>\n";
  } else {
    out << "<p><i>No snapshot published yet.</i></p>\n";
  }

  const auto history = pub.history();
  if (!history.empty()) {
    out << "<h2>Run history</h2>\n<table>\n<tr><th>run</th>"
           "<th>rounds</th><th>wall (ms)</th><th>result</th></tr>\n";
    for (auto it = history.rbegin(); it != history.rend(); ++it) {
      out << "<tr><td>" << html_escape(it->label) << "</td><td>"
          << it->rounds << "</td><td>" << it->wall_us / 1000 << "</td><td "
          << (it->ok ? "class=\"ok\">ok" : "class=\"bad\">failed")
          << "</td></tr>\n";
    }
    out << "</table>\n";
  }
  out << "</body></html>\n";
}

}  // namespace ds::obs
