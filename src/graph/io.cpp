#include "graph/io.hpp"

#include <charconv>
#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <sstream>

#include "support/check.hpp"

namespace ds::graph::io {

void write_edge_list(std::ostream& os, const Graph& g) {
  os << g.num_nodes() << ' ' << g.num_edges() << '\n';
  for (const Edge& e : g.edges()) {
    os << e.u << ' ' << e.v << '\n';
  }
}

namespace {

/// The one reader of both text formats: `header.size()` counts, the last
/// of them the edge count m, then exactly m pairs of node ids, then only
/// whitespace. Anything else — a sign, a non-number, a missing field, data
/// past the m-th pair — throws, naming the field and the problem (`>>`
/// alone wraps "-1" into a huge id and stops silently before extra lines).
std::vector<Edge> read_text(std::istream& is, const std::string& format,
                            std::span<std::size_t> header) {
  std::string token;
  std::size_t edge = 0;  // 0 in the header, then the 1-based edge number
  const auto field = [&](std::uint64_t max) {
    std::uint64_t value = 0;
    const bool read = static_cast<bool>(is >> token);
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, value);
    DS_CHECK_MSG(
        read && ec == std::errc() && ptr == end && value <= max,
        "malformed " + format +
            (edge == 0 ? std::string(" header")
                       : ", edge " + std::to_string(edge)) +
            ": " +
            (!read ? std::string("missing")
             : token[0] == '-' || token[0] == '+'
                 ? "'" + token + "' has a sign (ids and counts are unsigned)"
                 : "'" + token + "' is not an unsigned decimal up to " +
                       std::to_string(max)));
    return value;
  };
  for (std::size_t& count : header) count = field(SIZE_MAX);
  std::vector<Edge> edges;
  for (edge = 1; edge <= header.back(); ++edge) {
    const auto u = static_cast<NodeId>(field(UINT32_MAX));
    edges.push_back({u, static_cast<NodeId>(field(UINT32_MAX))});
  }
  DS_CHECK_MSG(!(is >> token), "malformed " + format + ": '" + token +
                                   "' past the " + std::to_string(edges.size()) +
                                   " edges its header announces");
  return edges;
}

}  // namespace

Graph read_edge_list(std::istream& is) {
  std::size_t header[2];  // n, m
  std::vector<Edge> edges = read_text(is, "edge list", header);
  return Graph(header[0], std::move(edges));
}

void write_bipartite(std::ostream& os, const BipartiteGraph& b) {
  os << b.num_left() << ' ' << b.num_right() << ' ' << b.num_edges() << '\n';
  for (EdgeId e = 0; e < b.num_edges(); ++e) {
    const auto [u, v] = b.endpoints(e);
    os << u << ' ' << v << '\n';
  }
}

BipartiteGraph read_bipartite(std::istream& is) {
  std::size_t header[3];  // nu, nv, m
  std::vector<Edge> edges = read_text(is, "bipartite", header);
  return BipartiteGraph(header[0], header[1], std::move(edges));
}

std::string to_dot(const Graph& g) {
  std::ostringstream os;
  os << "graph G {\n";
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    os << "  n" << v << ";\n";
  }
  for (const Edge& e : g.edges()) {
    os << "  n" << e.u << " -- n" << e.v << ";\n";
  }
  os << "}\n";
  return os.str();
}

std::string to_dot(const BipartiteGraph& b,
                   const std::vector<std::string>& right_colors) {
  std::ostringstream os;
  os << "graph B {\n";
  for (LeftId u = 0; u < b.num_left(); ++u) {
    os << "  u" << u << " [shape=box];\n";
  }
  for (RightId v = 0; v < b.num_right(); ++v) {
    os << "  v" << v;
    if (v < right_colors.size() && !right_colors[v].empty()) {
      os << " [style=filled, fillcolor=" << right_colors[v] << "]";
    }
    os << ";\n";
  }
  for (EdgeId e = 0; e < b.num_edges(); ++e) {
    const auto [u, v] = b.endpoints(e);
    os << "  u" << u << " -- v" << v << ";\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace ds::graph::io
