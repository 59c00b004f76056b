#include "graph/insitu.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace ds::graph {

namespace {

/// Counter-based draw: a pure function of (seed, family tag, a, b). No
/// generator state — the property that makes exact sharding possible.
std::uint64_t draw64(std::uint64_t seed, std::uint64_t tag, std::uint64_t a,
                     std::uint64_t b) {
  return splitmix64(splitmix64(splitmix64(seed ^ tag) ^ a) ^ b);
}

constexpr std::uint64_t kTorusTag = 0x746F727573ull;      // "torus"
constexpr std::uint64_t kGnpTag = 0x676E70ull;            // "gnp"
constexpr std::uint64_t kGnmTag = 0x676E6Dull;            // "gnm"
constexpr std::uint64_t kBaTag = 0x6261ull;               // "ba"
constexpr std::uint64_t kRggTag = 0x726767ull;            // "rgg"
constexpr std::uint64_t kBiregTag = 0x6269726567ull;      // "bireg"
constexpr std::uint64_t kKronTag = 0x6B726F6Eull;         // "kron"

bool edge_less(const Edge& a, const Edge& b) {
  return a.u != b.u ? a.u < b.u : a.v < b.v;
}

/// Most families emit ascending rows node by node, so their shards arrive
/// sorted: one linear check, and a sort only where emission is not ordered
/// (ba, and the index streams of gnm and kronecker).
void sort_unique(std::vector<Edge>& edges) {
  if (!std::is_sorted(edges.begin(), edges.end(), edge_less)) {
    std::sort(edges.begin(), edges.end(), edge_less);
  }
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
}

void push_normalized(std::vector<Edge>& out, std::uint64_t a, std::uint64_t b) {
  if (a == b) return;
  if (a > b) std::swap(a, b);
  out.push_back(Edge{static_cast<NodeId>(a), static_cast<NodeId>(b)});
}

// --- torus: 4-regular wrap-around grid, emitted at the min endpoint -------

void shard_torus(std::uint64_t w, std::uint64_t h, NodeId first, NodeId last,
                 std::vector<Edge>& out) {
  // Two edges per node, plus one more per node of row 0 or column 0: the
  // upward and leftward wraps.
  out.reserve(2 * static_cast<std::size_t>(last - first) + w + h);
  for (std::uint64_t u = first; u < last; ++u) {
    const std::uint64_t r = u / w;
    const std::uint64_t c = u % w;
    // Ascending among the neighbors above u (w, h >= 3): right, then the
    // left wrap of column 0 (both in row r), then the row below, then the
    // upward wrap of row 0 into row h - 1.
    const std::uint64_t nbr[4] = {
        r * w + (c + 1) % w, r * w + (c + w - 1) % w,
        ((r + 1) % h) * w + c, ((r + h - 1) % h) * w + c};
    for (std::uint64_t v : nbr) {
      if (u < v) out.push_back(Edge{static_cast<NodeId>(u),
                                    static_cast<NodeId>(v)});
    }
  }
}

// --- gnp: per-row geometric skip sampling over v in (u, n) ----------------

void shard_gnp(std::uint64_t seed, std::uint64_t n, std::uint64_t deg,
               NodeId first, NodeId last, std::vector<Edge>& out) {
  const double p = static_cast<double>(deg) / static_cast<double>(n - 1);
  for (std::uint64_t u = first; u < last; ++u) {
    if (p >= 1.0) {
      for (std::uint64_t v = u + 1; v < n; ++v) {
        out.push_back(Edge{static_cast<NodeId>(u), static_cast<NodeId>(v)});
      }
      continue;
    }
    const double log_q = std::log1p(-p);
    std::uint64_t v = u;
    for (std::uint64_t k = 0;; ++k) {
      const std::uint64_t r = draw64(seed, kGnpTag, u, k);
      // uniform in (0, 1]: skip = floor(log(unit) / log(1 - p))
      const double unit =
          static_cast<double>((r >> 11) + 1) * 0x1.0p-53;
      const double skip = std::floor(std::log(unit) / log_q);
      if (!(skip < static_cast<double>(n))) break;
      v += 1 + static_cast<std::uint64_t>(skip);
      if (v >= n) break;
      out.push_back(Edge{static_cast<NodeId>(u), static_cast<NodeId>(v)});
    }
  }
}

// --- gnm: self-discovering global index stream of m endpoint-pair draws ---

void shard_gnm(std::uint64_t seed, std::uint64_t n, std::uint64_t m,
               NodeId first, NodeId last, std::vector<Edge>& out) {
  for (std::uint64_t i = 0; i < m; ++i) {
    const std::uint64_t a = draw64(seed, kGnmTag, i, 0) % n;
    const std::uint64_t b = draw64(seed, kGnmTag, i, 1) % n;
    if (a == b) continue;
    if ((a >= first && a < last) || (b >= first && b < last)) {
      push_normalized(out, a, b);
    }
  }
}

// --- ba: preferential attachment via Batagelj–Brandes slot resolution -----
//
// Edge e occupies slots 2e (its owner node) and 2e+1 (its sampled target).
// Sampling a uniform slot in [0, 2e) picks an endpoint degree-proportionally;
// odd slots resolve recursively into the sampled edge's own target. The seed
// clique on nodes 0..d terminates every chain.

struct BaParams {
  std::uint64_t seed, d, clique_edges;
};

std::pair<std::uint64_t, std::uint64_t> ba_clique_pair(std::uint64_t j,
                                                       std::uint64_t d) {
  std::uint64_t a = 0;
  while (j >= d - a) {
    j -= d - a;
    ++a;
  }
  return {a, a + 1 + j};
}

std::uint64_t ba_draw(const BaParams& ba, std::uint64_t e) {
  return draw64(ba.seed, kBaTag, e, 0) % (2 * e);
}

std::uint64_t ba_resolve(const BaParams& ba, std::uint64_t s) {
  for (;;) {
    if (s < 2 * ba.clique_edges) {
      const auto [a, b] = ba_clique_pair(s / 2, ba.d);
      return (s % 2 == 0) ? a : b;
    }
    const std::uint64_t e = s / 2;
    if (s % 2 == 0) return ba.d + 1 + (e - ba.clique_edges) / ba.d;
    s = ba_draw(ba, e);
  }
}

void shard_ba(std::uint64_t seed, std::uint64_t /*n*/, std::uint64_t d,
              NodeId first, NodeId last, std::vector<Edge>& out) {
  const BaParams ba{seed, d, d * (d + 1) / 2};
  std::vector<Edge> row;
  for (std::uint64_t v = first; v < last; ++v) {
    if (v <= d) {
      // Clique edges, emitted at their max endpoint.
      for (std::uint64_t a = 0; a < v; ++a) {
        out.push_back(Edge{static_cast<NodeId>(a), static_cast<NodeId>(v)});
      }
      continue;
    }
    row.clear();
    for (std::uint64_t i = 0; i < d; ++i) {
      const std::uint64_t e = ba.clique_edges + (v - d - 1) * d + i;
      const std::uint64_t t = ba_resolve(ba, ba_draw(ba, e));
      if (t != v) push_normalized(row, t, v);
    }
    sort_unique(row);
    out.insert(out.end(), row.begin(), row.end());
  }
}

// --- rgg: 2D geometric graph on a fixed-point grid ------------------------
//
// g×g cells of side W = 2^32 / g; connection radius = W, so the 3×3 cell
// neighborhood covers every candidate. Cell c (row-major) owns the node id
// range [c·n/C, (c+1)·n/C), making ownership spatial — cut edges concentrate
// at range borders.

struct RggParams {
  std::uint64_t seed, n, g, cell_width;

  [[nodiscard]] std::uint64_t cells() const { return g * g; }
  [[nodiscard]] std::uint64_t cell_start(std::uint64_t c) const {
    return static_cast<std::uint64_t>(
        static_cast<unsigned __int128>(c) * n / cells());
  }
  [[nodiscard]] std::uint64_t cell_of(std::uint64_t k) const {
    std::uint64_t c = static_cast<std::uint64_t>(
        static_cast<unsigned __int128>(k) * cells() / n);
    while (c + 1 <= cells() && cell_start(c + 1) <= k) ++c;
    while (cell_start(c) > k) --c;
    return c;
  }
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> position(
      std::uint64_t k) const {
    const std::uint64_t c = cell_of(k);
    const std::uint64_t x =
        (c % g) * cell_width + draw64(seed, kRggTag, k, 0) % cell_width;
    const std::uint64_t y =
        (c / g) * cell_width + draw64(seed, kRggTag, k, 1) % cell_width;
    return {x, y};
  }
};

void shard_rgg(const RggParams& rgg, NodeId first, NodeId last,
               std::vector<Edge>& out) {
  const unsigned __int128 radius_sq =
      static_cast<unsigned __int128>(rgg.cell_width) * rgg.cell_width;
  std::vector<Edge> row;
  for (std::uint64_t u = first; u < last; ++u) {
    const auto [ux, uy] = rgg.position(u);
    const std::uint64_t cu = rgg.cell_of(u);
    const std::uint64_t cx = cu % rgg.g;
    const std::uint64_t cy = cu / rgg.g;
    row.clear();
    for (std::uint64_t dy = (cy == 0 ? 1 : 0); dy <= (cy + 1 < rgg.g ? 2u : 1u);
         ++dy) {
      for (std::uint64_t dx = (cx == 0 ? 1 : 0);
           dx <= (cx + 1 < rgg.g ? 2u : 1u); ++dx) {
        const std::uint64_t c = (cy + dy - 1) * rgg.g + (cx + dx - 1);
        const std::uint64_t lo = rgg.cell_start(c);
        const std::uint64_t hi = rgg.cell_start(c + 1);
        for (std::uint64_t w = lo; w < hi; ++w) {
          if (w <= u) continue;  // min-endpoint emission
          const auto [wx, wy] = rgg.position(w);
          const std::uint64_t ddx = ux > wx ? ux - wx : wx - ux;
          const std::uint64_t ddy = uy > wy ? uy - wy : wy - uy;
          const unsigned __int128 dist_sq =
              static_cast<unsigned __int128>(ddx) * ddx +
              static_cast<unsigned __int128>(ddy) * ddy;
          if (dist_sq <= radius_sq) {
            row.push_back(
                Edge{static_cast<NodeId>(u), static_cast<NodeId>(w)});
          }
        }
      }
    }
    std::sort(row.begin(), row.end(), edge_less);
    out.insert(out.end(), row.begin(), row.end());
  }
}

// --- biregular: exactly delta-left-regular bipartite ----------------------
//
// A Feistel network cycle-walked to [0, nu*delta) permutes the left slots;
// slot s of left node u targets right node perm(s) % nv, with linear-probe
// repair for within-row duplicates. Left rows are the only emitters (the
// left endpoint u < nu <= nu + j is always the min endpoint).

struct FeistelPerm {
  std::uint64_t seed, size, half_bits, mask;

  static FeistelPerm make(std::uint64_t seed, std::uint64_t size) {
    std::uint64_t bits = 2;
    while ((std::uint64_t(1) << bits) < size) bits += 2;
    return {seed, size, bits / 2, (std::uint64_t(1) << (bits / 2)) - 1};
  }

  [[nodiscard]] std::uint64_t once(std::uint64_t t) const {
    std::uint64_t l = t >> half_bits;
    std::uint64_t r = t & mask;
    for (std::uint64_t round = 0; round < 4; ++round) {
      const std::uint64_t next = l ^ (draw64(seed, kBiregTag, round, r) & mask);
      l = r;
      r = next;
    }
    return (l << half_bits) | r;
  }

  [[nodiscard]] std::uint64_t operator()(std::uint64_t t) const {
    do {
      t = once(t);
    } while (t >= size);
    return t;
  }
};

void shard_biregular(std::uint64_t seed, std::uint64_t nu, std::uint64_t nv,
                     std::uint64_t delta, NodeId first, NodeId last,
                     std::vector<Edge>& out) {
  const FeistelPerm perm = FeistelPerm::make(seed, nu * delta);
  const NodeId stop = static_cast<NodeId>(std::min<std::uint64_t>(last, nu));
  std::vector<std::uint64_t> used;
  for (std::uint64_t u = first; u < stop; ++u) {
    used.clear();
    for (std::uint64_t i = 0; i < delta; ++i) {
      std::uint64_t j = perm(u * delta + i) % nv;
      while (std::find(used.begin(), used.end(), j) != used.end()) {
        j = (j + 1) % nv;
      }
      used.push_back(j);
    }
    std::sort(used.begin(), used.end());
    for (std::uint64_t j : used) {
      out.push_back(
          Edge{static_cast<NodeId>(u), static_cast<NodeId>(nu + j)});
    }
  }
}

// --- kronecker: R-MAT recursive quadrant descent, self-discovering --------

void shard_kronecker(std::uint64_t seed, std::uint64_t scale,
                     std::uint64_t draws, NodeId first, NodeId last,
                     std::vector<Edge>& out) {
  // Standard R-MAT quadrant probabilities a/b/c/d = 0.57/0.19/0.19/0.05,
  // as cumulative 64-bit thresholds.
  const double two64 = 18446744073709551616.0;
  const auto t1 = static_cast<std::uint64_t>(0.57 * two64);
  const auto t2 = static_cast<std::uint64_t>(0.76 * two64);
  const auto t3 = static_cast<std::uint64_t>(0.95 * two64);
  for (std::uint64_t i = 0; i < draws; ++i) {
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    for (std::uint64_t level = 0; level < scale; ++level) {
      const std::uint64_t r = draw64(seed, kKronTag, i, level);
      const std::uint64_t ub = (r >= t2) ? 1 : 0;
      const std::uint64_t vb = (r >= t1 && r < t2) || r >= t3 ? 1 : 0;
      u |= ub << level;
      v |= vb << level;
    }
    if (u == v) continue;
    const std::uint64_t lo = std::min(u, v);
    const std::uint64_t hi = std::max(u, v);
    if ((lo >= first && lo < last) || (hi >= first && hi < last)) {
      out.push_back(Edge{static_cast<NodeId>(lo), static_cast<NodeId>(hi)});
    }
  }
}

}  // namespace

GenSpec GenSpec::parse(const std::string& text) {
  GenSpec spec;
  const auto colon = text.find(':');
  spec.family = text.substr(0, colon);
  DS_CHECK_MSG(!spec.family.empty(), "generator spec needs a family name");
  if (colon != std::string::npos) {
    std::istringstream rest(text.substr(colon + 1));
    std::string item;
    while (std::getline(rest, item, ',')) {
      const auto eq = item.find('=');
      DS_CHECK_MSG(eq != std::string::npos && eq > 0,
                   "generator spec items must be key=value: " + item);
      try {
        spec.params[item.substr(0, eq)] = std::stoull(item.substr(eq + 1));
      } catch (const std::exception&) {
        ds::detail::fail_check(item.c_str(), __FILE__, __LINE__,
                               "generator spec value is not an integer");
      }
    }
  }
  return spec;
}

std::string GenSpec::canonical() const {
  std::string text = family;
  char sep = ':';
  for (const auto& [key, value] : params) {  // std::map — sorted keys
    text += sep;
    text += key + "=" + std::to_string(value);
    sep = ',';
  }
  return text;
}

std::uint64_t GenSpec::param(const std::string& key,
                             std::uint64_t fallback) const {
  const auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

std::uint64_t GenSpec::required(const std::string& key) const {
  const auto it = params.find(key);
  DS_CHECK_MSG(it != params.end(),
               "generator spec '" + family + "' needs parameter '" + key + "'");
  return it->second;
}

LocalCsr build_local_csr(const std::vector<Edge>& incident, NodeId first,
                         NodeId last) {
  DS_CHECK(first <= last);
  const std::size_t local = last - first;
  LocalCsr csr;
  csr.first = first;
  csr.last = last;
  csr.offsets.assign(local + 1, 0);
  const auto owned = [&](NodeId v) { return v >= first && v < last; };
  const Edge* prev = nullptr;
  for (const Edge& e : incident) {
    // The precondition that makes every row come out ascending: all of a
    // node's smaller neighbors (edges (u, x), u < x) precede its larger
    // ones (edges (x, v)), each group in increasing order.
    DS_CHECK_MSG(e.u < e.v && (prev == nullptr || prev->u < e.u ||
                               (prev->u == e.u && prev->v < e.v)),
                 "build_local_csr needs a strictly increasing incident "
                 "edge list with u < v");
    prev = &e;
    if (owned(e.u)) ++csr.offsets[e.u - first + 1];
    if (owned(e.v)) ++csr.offsets[e.v - first + 1];
  }
  for (std::size_t i = 1; i <= local; ++i) csr.offsets[i] += csr.offsets[i - 1];
  csr.adjacency.resize(csr.offsets[local]);
  std::vector<std::size_t> cursor(csr.offsets.begin(), csr.offsets.end() - 1);
  for (const Edge& e : incident) {
    if (owned(e.u)) csr.adjacency[cursor[e.u - first]++] = e.v;
    if (owned(e.v)) csr.adjacency[cursor[e.v - first]++] = e.u;
  }
  return csr;
}

DistributedGenerator::DistributedGenerator(GenSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), seed_(seed) {
  const std::string& f = spec_.family;
  if (f == "torus") {
    const std::uint64_t w = spec_.required("w");
    const std::uint64_t h = spec_.required("h");
    DS_CHECK_MSG(w >= 3 && h >= 3, "torus needs w, h >= 3");
    n_ = w * h;
  } else if (f == "gnp") {
    const std::uint64_t n = spec_.required("n");
    const std::uint64_t deg = spec_.required("deg");
    DS_CHECK_MSG(n >= 2 && deg >= 1, "gnp needs n >= 2 and deg >= 1");
    n_ = n;
  } else if (f == "gnm") {
    const std::uint64_t n = spec_.required("n");
    DS_CHECK_MSG(n >= 2, "gnm needs n >= 2");
    DS_CHECK_MSG(spec_.params.count("m") || spec_.params.count("deg"),
                 "gnm needs m or deg");
    n_ = n;
  } else if (f == "ba") {
    const std::uint64_t n = spec_.required("n");
    const std::uint64_t d = spec_.required("d");
    DS_CHECK_MSG(d >= 1 && n >= d + 2, "ba needs d >= 1 and n >= d + 2");
    n_ = n;
  } else if (f == "rgg") {
    const std::uint64_t n = spec_.required("n");
    const std::uint64_t deg = spec_.required("deg");
    DS_CHECK_MSG(n >= 2 && deg >= 1, "rgg needs n >= 2 and deg >= 1");
    n_ = n;
  } else if (f == "biregular") {
    const std::uint64_t nu = spec_.required("nu");
    const std::uint64_t nv = spec_.required("nv");
    const std::uint64_t delta = spec_.required("delta");
    DS_CHECK_MSG(nu >= 1 && nv >= 1 && delta >= 1 && delta <= nv,
                 "biregular needs nu, nv >= 1 and 1 <= delta <= nv");
    n_ = nu + nv;
    nu_ = nu;
  } else if (f == "kronecker") {
    const std::uint64_t scale = spec_.required("scale");
    DS_CHECK_MSG(scale >= 1 && scale <= 31, "kronecker needs 1 <= scale <= 31");
    (void)spec_.required("deg");  // presence check only; value read per shard
    n_ = std::uint64_t(1) << scale;
  } else {
    DS_CHECK_MSG(false, "unknown generator family '" + f + "'");
  }
  DS_CHECK_MSG(n_ <= static_cast<std::uint64_t>(NodeId(-1)),
               "instance exceeds the 32-bit NodeId space");
  self_discovering_ = (f == "gnm" || f == "kronecker");
}

std::vector<Edge> DistributedGenerator::shard(NodeId first, NodeId last) const {
  DS_CHECK(first <= last && last <= n_);
  std::vector<Edge> out;
  const std::string& f = spec_.family;
  if (f == "torus") {
    shard_torus(spec_.required("w"), spec_.required("h"), first, last, out);
  } else if (f == "gnp") {
    shard_gnp(seed_, n_, spec_.required("deg"), first, last, out);
  } else if (f == "gnm") {
    const std::uint64_t m =
        spec_.param("m", n_ * spec_.param("deg", 0) / 2);
    shard_gnm(seed_, n_, m, first, last, out);
  } else if (f == "ba") {
    shard_ba(seed_, n_, spec_.required("d"), first, last, out);
  } else if (f == "rgg") {
    const std::uint64_t deg = spec_.required("deg");
    const auto g = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::llround(std::sqrt(
               static_cast<double>(n_) * 3.14159265358979323846 /
               static_cast<double>(deg)))));
    shard_rgg(RggParams{seed_, n_, g, (std::uint64_t(1) << 32) / g}, first,
              last, out);
  } else if (f == "biregular") {
    shard_biregular(seed_, nu_, spec_.required("nv"), spec_.required("delta"),
                    first, last, out);
  } else {
    shard_kronecker(seed_, spec_.required("scale"),
                    n_ * spec_.required("deg") / 2, first, last, out);
  }
  sort_unique(out);
  return out;
}

Graph DistributedGenerator::generate_full() const {
  std::vector<Edge> edges = shard(0, static_cast<NodeId>(n_));
  // A strictly increasing list makes every row ascending — the canonical
  // layout the rank-local path reproduces. Checked here, where a failure
  // can name the family.
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    DS_CHECK_MSG(e.u < e.v && e.v < n_,
                 "generator '" + spec_.family + "' emitted a malformed edge");
    DS_CHECK_MSG(i == 0 || edge_less(edges[i - 1], e),
                 "generator '" + spec_.family +
                     "' emitted an edge twice or out of order");
  }
  return Graph(n_, std::move(edges));
}

const std::vector<std::string>& DistributedGenerator::families() {
  static const std::vector<std::string> kFamilies = {
      "torus", "gnp", "gnm", "ba", "rgg", "biregular", "kronecker"};
  return kFamilies;
}

}  // namespace ds::graph
