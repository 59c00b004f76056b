#pragma once

/// \file exposition.hpp
/// The obs renderers. Over a `SnapshotPublisher`, for the embedded HTTP
/// server: Prometheus text exposition format 0.0.4 (`/metrics`), the
/// metrics JSON (`/api/v1/snapshot`), and a self-contained HTML status page
/// (`/status`). These read only published snapshots and the publisher's
/// mutex-guarded metadata — never the live registry — so they are safe to
/// call from the server thread while a round loop is publishing. Over a
/// plain metric list: the metrics JSON and the derived hardware ratios,
/// which `Recorder`'s writers share with the publisher renderers.

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace ds::obs {

class SnapshotPublisher;

/// JSON string escaping for every obs writer: quotes, backslashes and
/// control bytes.
[[nodiscard]] std::string json_escape(const std::string& s);

/// The metrics JSON: {"context": {...}, "counters": {...}, "gauges": {...},
/// "histograms": {...}}. Counters and gauges are bare integers (signed
/// where `signed_gauge_name` says so), so deterministic counters compare
/// bit-identically across runtimes; histograms expose
/// count/sum/min/max/mean. `Recorder::write_metrics_json` and
/// `write_snapshot_json` both render through it.
void write_metrics_json(
    std::ostream& out,
    const std::vector<std::pair<std::string, std::string>>& context,
    const std::vector<MetricSnapshot>& metrics);

/// One phase's derived hardware ratios, from its `perf.<phase>.*` counters.
struct PhaseRatios {
  std::string phase;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  double ipc = 0.0;
  /// cache_misses / cache_refs; empty when the phase counted no refs.
  std::optional<double> cache_miss_rate;
};

/// The phases whose live counter group recorded cycles, by phase name.
/// Empty under the perf fallback: the hardware counters are then never
/// registered, and a fake 0.0 IPC must not appear.
[[nodiscard]] std::vector<PhaseRatios> derived_perf(
    const std::vector<MetricSnapshot>& metrics);

/// Prometheus text exposition 0.0.4: one `# TYPE` line per family, names
/// mangled `distsplit_<name with [^a-zA-Z0-9_] -> _>`, counters suffixed
/// `_total`, multi-slot metrics labeled `{slot="i"}` (slot = peer rank for
/// the tcp.* counters). Histograms (count/sum/min/max summaries) expose
/// `<name>_count` / `<name>_sum` as a summary family plus `_min`/`_max`
/// gauge families. Synthesized series: `distsplit_rounds_total` (completed
/// rounds of the live run — the series scrapers watch advance),
/// `distsplit_publishes_total` and `distsplit_health`.
void write_prometheus(std::ostream& out, const SnapshotPublisher& pub);

/// `write_metrics_json` of the published snapshot, with the publisher's
/// info plus its health, rounds and publish count as context.
void write_snapshot_json(std::ostream& out, const SnapshotPublisher& pub);

/// Self-contained HTML status page: health, run context, rounds, per-phase
/// timing table, per-peer tcp counters, remaining counters/gauges, and the
/// run-history ring.
void write_status_html(std::ostream& out, const SnapshotPublisher& pub);

/// The run-history ring as JSON (`/api/v1/runs`): {"health", "runs": [{
/// "id", "spec", "params_digest", "output_digest", "rounds", "wall_us",
/// "ok"}, ...]} oldest-first. Digests render as 16-digit hex strings (the
/// same form `Result::brief` prints), zero digests as "".
void write_runs_json(std::ostream& out, const SnapshotPublisher& pub);

/// `distsplit_<name>` with every non-[a-zA-Z0-9_] byte mapped to '_'.
[[nodiscard]] std::string prometheus_name(const std::string& name);

}  // namespace ds::obs
