#pragma once

/// \file generators.hpp
/// Instance generators for the experiment harness: random (bi)regular graphs
/// via the pairing model with swap repair, Erdős–Rényi graphs, structured
/// families (cycles, hypercubes, trees), high-girth regular graphs, and the
/// bipartite instance families used throughout the paper.

#include "graph/bipartite.hpp"
#include "graph/graph.hpp"
#include "support/rng.hpp"

namespace ds::graph::gen {

/// Erdős–Rényi G(n, p).
Graph gnp(std::size_t n, double p, Rng& rng);

/// Random d-regular simple graph via the configuration (pairing) model with
/// swap repair. Requires n*d even and d < n.
Graph random_regular(std::size_t n, std::size_t d, Rng& rng);

/// Cycle C_n. Requires n >= 3.
Graph cycle(std::size_t n);

/// Complete graph K_n.
Graph complete(std::size_t n);

/// The dim-dimensional hypercube (2^dim nodes, degree dim).
Graph hypercube(std::size_t dim);

/// Uniform random labelled tree (Prüfer-free random attachment).
Graph random_tree(std::size_t n, Rng& rng);

/// Random d-regular graph with girth >= min_girth, produced by generating a
/// random regular graph and breaking short cycles with double edge swaps.
/// Practical for small d and min_girth <= 6. Throws if it cannot reach the
/// target girth within the attempt budget.
Graph high_girth_regular(std::size_t n, std::size_t d, std::size_t min_girth,
                         Rng& rng);

/// Bipartite instance where every left node picks `delta` distinct random
/// right neighbors. Rank concentrates around nu*delta/nv.
BipartiteGraph random_left_regular(std::size_t nu, std::size_t nv,
                                   std::size_t delta, Rng& rng);

/// Bipartite instance that is exactly d_left-regular on the left and
/// balanced on the right: right degrees differ by at most 1 and equal
/// ceil/floor of nu*d_left/nv. Built by the pairing model with swap repair
/// (no parallel edges). Requires d_left <= nv.
BipartiteGraph random_biregular(std::size_t nu, std::size_t nv,
                                std::size_t d_left, Rng& rng);

/// The incidence bipartite graph of `g`: U = V(g), V = E(g), u adjacent to e
/// iff u is an endpoint of e. Rank is exactly 2; left degrees equal the
/// degrees of g; girth is twice the girth of g.
BipartiteGraph incidence_bipartite(const Graph& g);

/// An even cycle of length 2k viewed as a bipartite graph with k left and k
/// right nodes; its girth is 2k. Requires k >= 2.
BipartiteGraph bipartite_cycle(std::size_t k);

/// The w × h torus grid (wrap-around in both dimensions): 4-regular for
/// w, h >= 3, girth 4 (girth min(w, h) if either dimension is 3... exactly:
/// girth = min(4, w, h)). A classic bounded-degree topology for LOCAL
/// experiments. Requires w, h >= 3.
Graph torus(std::size_t w, std::size_t h);

/// Chung–Lu power-law graph: node v gets weight ~ (v+1)^(-1/(gamma-1))
/// scaled to `average_degree`; edge (u, v) appears with probability
/// min(1, w_u·w_v / Σw). Heavy-tailed degrees — the irregular regime where
/// the paper's nearly-regular algorithms do NOT apply and the solver
/// facade must fall back. Requires gamma > 2.
Graph chung_lu_power_law(std::size_t n, double gamma, double average_degree,
                         Rng& rng);

/// Barabási–Albert preferential attachment (KaGen-style): a clique on the
/// first m+1 nodes, then every new node attaches to `m` distinct existing
/// nodes sampled degree-proportionally (uniform draws from the flat
/// edge-endpoint array, duplicates resampled). Scale-free degree tail —
/// like chung_lu_power_law an irregular stress family, but grown
/// incrementally so min degree is m. Requires 1 <= m < n.
Graph barabasi_albert(std::size_t n, std::size_t m, Rng& rng);

/// 2D random geometric graph: n points uniform in the unit square, an edge
/// between every pair at Euclidean distance <= radius. Built with grid
/// bucketing (cell side = radius), so expected O(n + m) time at constant
/// expected degree n·π·radius². Spatial locality makes it a natural
/// partition-friendly topology for the multi-rank runtimes. Requires
/// radius > 0.
Graph random_geometric_2d(std::size_t n, double radius, Rng& rng);

}  // namespace ds::graph::gen
