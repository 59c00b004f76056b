#include "obs/metrics.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace ds::obs {

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kCounter:
      return "counter";
    case Kind::kGauge:
      return "gauge";
    case Kind::kHistogram:
      return "histogram";
  }
  return "?";
}

bool signed_gauge_name(const std::string& name) {
  return name.rfind("clock.offset.", 0) == 0;
}

void fold(Kind kind, Cell& into, const Cell& from) {
  if (kind == Kind::kGauge) {
    into.count = std::max(into.count, from.count);
    into.sum = std::max(into.sum, from.sum);
  } else {
    into.count += from.count;
    into.sum += from.sum;
  }
  into.min = std::min(into.min, from.min);
  into.max = std::max(into.max, from.max);
}

Metrics::Metric& Metrics::find_or_create(const std::string& name, Kind kind,
                                         std::size_t slots, bool from_merge) {
  DS_CHECK(slots > 0);
  for (Metric& m : metrics_) {
    if (m.name != name) continue;
    DS_CHECK_MSG(m.kind == kind,
                 "metric '" + name + "' re-registered as a different kind (" +
                     kind_name(m.kind) + " vs " + kind_name(kind) + ")");
    while (m.cells.size() < slots) m.cells.emplace_back();
    return m;
  }
#ifndef NDEBUG
  // Debug-build ordering guard: once a reader consumed the registry, a new
  // name may not appear until reset() — a serving loop (snapshot publisher,
  // HTTP thread) must never race a late registration. The post-gather fleet
  // merge is exempt; it runs on the owning thread and brings peer-only
  // names in by design.
  DS_CHECK_MSG(!sealed_ || from_merge,
               "metric '" + name +
                   "' registered after the registry was snapshot/published "
                   "— registration must happen before readers start");
#else
  (void)from_merge;
#endif
  Metric& m = metrics_.emplace_back();
  m.name = name;
  m.kind = kind;
  m.cells.resize(slots);
  return m;
}

Counter Metrics::counter(const std::string& name, std::size_t slots,
                         std::size_t slot) {
  DS_CHECK(slot < slots);
  return Counter(&find_or_create(name, Kind::kCounter, slots).cells[slot]);
}

Gauge Metrics::gauge(const std::string& name) {
  return Gauge(&find_or_create(name, Kind::kGauge, 1).cells[0]);
}

Histogram Metrics::histogram(const std::string& name, std::size_t slots,
                             std::size_t slot) {
  DS_CHECK(slot < slots);
  return Histogram(&find_or_create(name, Kind::kHistogram, slots).cells[slot]);
}

std::vector<MetricSnapshot> Metrics::snapshot() const {
  seal();
  std::vector<MetricSnapshot> out;
  out.reserve(metrics_.size());
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    out.push_back(aggregate(i));
  }
  return out;
}

MetricSnapshot Metrics::aggregate(std::size_t i) const {
  DS_CHECK(i < metrics_.size());
  const Metric& m = metrics_[i];
  MetricSnapshot s;
  s.name = m.name;
  s.kind = m.kind;
  for (const Cell& c : m.cells) fold(m.kind, s, c);
  return s;
}

const std::string& Metrics::name_of(std::size_t i) const {
  DS_CHECK(i < metrics_.size());
  return metrics_[i].name;
}

Kind Metrics::kind_of(std::size_t i) const {
  DS_CHECK(i < metrics_.size());
  return metrics_[i].kind;
}

std::size_t Metrics::num_slots(std::size_t i) const {
  DS_CHECK(i < metrics_.size());
  return metrics_[i].cells.size();
}

const Cell& Metrics::cell(std::size_t i, std::size_t slot) const {
  DS_CHECK(i < metrics_.size() && slot < metrics_[i].cells.size());
  return metrics_[i].cells[slot];
}

void Metrics::merge(const MetricSnapshot& s) {
  Metric& m = find_or_create(s.name, s.kind, 1, /*from_merge=*/true);
  fold(s.kind, m.cells[0], s);
}

}  // namespace ds::obs
