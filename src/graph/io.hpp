#pragma once

/// \file io.hpp
/// Plain-text (de)serialization for graphs and bipartite instances, plus
/// Graphviz DOT export for debugging small instances.

#include <iosfwd>
#include <string>

#include "graph/bipartite.hpp"
#include "graph/graph.hpp"

namespace ds::graph::io {

/// Writes `g` as "n m" header followed by one "u v" line per edge.
void write_edge_list(std::ostream& os, const Graph& g);

/// Reads the format produced by `write_edge_list`: the header, exactly m
/// pairs of unsigned decimals, then only whitespace. Throws ds::CheckError
/// naming the problem on anything else (a sign, a non-number, a missing
/// field, data past the m-th pair).
Graph read_edge_list(std::istream& is);

/// Writes `b` as "nu nv m" header followed by one "u v" line per edge.
void write_bipartite(std::ostream& os, const BipartiteGraph& b);

/// Reads the format produced by `write_bipartite`, under the rules of
/// `read_edge_list`.
BipartiteGraph read_bipartite(std::istream& is);

/// Graphviz DOT representation of `g`.
std::string to_dot(const Graph& g);

/// Graphviz DOT representation of `b`; left nodes are boxes, right are
/// ellipses. Optional per-right-node color labels (e.g. a splitting).
std::string to_dot(const BipartiteGraph& b,
                   const std::vector<std::string>& right_colors = {});

}  // namespace ds::graph::io
