#pragma once
/// \file generators.hpp
/// Deterministic synthetic graph generators, one per structural class of the
/// paper's six evaluation datasets (Table 4):
///
///  * `rmat`            — power-law Kronecker graphs: social networks (Reddit),
///                        co-purchasing (ogbn-products, products-14M) and
///                        citation graphs (ogbn-papers100M).
///  * `community_graph` — dense overlapping clusters: protein-similarity
///                        networks (Isolate-3-8M from HipMCL).
///  * `road_network`    — partial 2D lattice with shortcuts: OpenStreetMap road
///                        graphs (europe_osm). Row-major node numbering gives
///                        the near-diagonal adjacency whose block imbalance
///                        Table 3 measures.
///  * `erdos_renyi`     — uniform random graphs for unit tests.
///
/// All generators return symmetrised, deduplicated edge lists without self
/// loops, with node ids in their *natural* (community/locality-correlated)
/// order — permutation experiments rely on that.

#include <cstdint>
#include <vector>

#include "sparse/coo.hpp"

namespace plexus::graph {

/// R-MAT / stochastic-Kronecker generator. `scale` = log2(#nodes); emits
/// ~`target_edges` unique undirected edges with partition probabilities
/// (a, b, c, d), a + b + c + d = 1. Natural ordering concentrates hubs at low
/// indices (power-law head).
sparse::Coo rmat(int scale, std::int64_t target_edges, double a, double b, double c, double d,
                 std::uint64_t seed);

/// Overlapping dense-community graph: `num_nodes` nodes in contiguous
/// communities of mean size `community_size`; each node draws ~`avg_degree`
/// neighbours, a fraction `p_in` inside its community, the rest global with
/// mild preferential attachment.
sparse::Coo community_graph(std::int64_t num_nodes, std::int64_t community_size,
                            double avg_degree, double p_in, std::uint64_t seed);

/// Road-network surrogate: `width * height` lattice in row-major order; each
/// lattice edge kept with probability `keep_prob` (road graphs average degree
/// ~2.1, a full lattice is 4); `shortcut_frac * num_nodes` long-range highway
/// edges.
sparse::Coo road_network(std::int64_t width, std::int64_t height, double keep_prob,
                         double shortcut_frac, std::uint64_t seed);

/// Uniform random graph with ~`target_edges` unique undirected edges.
sparse::Coo erdos_renyi(std::int64_t num_nodes, std::int64_t target_edges, std::uint64_t seed);

/// The RMAT attempt stream shared by `rmat` (in memory) and `rmat_to_shards`
/// (streamed). Attempt i draws exactly 2 * scale values from one SplitMix64
/// stream — self loops included, which are then rejected — so it starts
/// 2 * scale * i draws in and any range of attempts can be generated on its
/// own. The accepted edges are the first `target_edges` distinct undirected
/// pairs in attempt order, among at most rmat_attempt_cap(target_edges)
/// attempts. Both paths consume attempts in windows (rmat_window_end) and
/// stop once the windows seen hold `target_edges` distinct pairs: each of the
/// first `target_edges` distinct pairs first occurs inside those windows, so
/// the accepted set and its order do not depend on the window policy.
namespace detail {

/// The generator parameters the stream depends on (d = 1 - a - b - c).
struct RmatShape {
  int scale = 1;
  double a = 0.57;
  double b = 0.19;
  double c = 0.19;
  std::uint64_t seed = 1;
};

/// One attempt that drew an edge: `edge` = u << 32 | v as drawn, `attempt`
/// its index in the stream.
struct RmatDraw {
  std::uint64_t edge = 0;
  std::uint64_t attempt = 0;
};

/// Dedup key of a drawn edge: the same pair with the smaller endpoint first.
inline std::uint64_t rmat_pair_key(std::uint64_t edge) {
  const std::uint64_t u = edge >> 32;
  const std::uint64_t v = edge & 0xffffffffULL;
  return u < v ? edge : (v << 32 | u);
}

/// Orders draws by pair, then by attempt: the first draw of each pair leads.
/// A strict total order (attempt indices are unique).
struct RmatDrawByPair {
  bool operator()(const RmatDraw& x, const RmatDraw& y) const {
    const std::uint64_t kx = rmat_pair_key(x.edge);
    const std::uint64_t ky = rmat_pair_key(y.edge);
    return kx != ky ? kx < ky : x.attempt < y.attempt;
  }
};

struct RmatDrawByAttempt {
  bool operator()(const RmatDraw& x, const RmatDraw& y) const { return x.attempt < y.attempt; }
};

/// The most attempts the generator spends: 8 * target_edges.
std::int64_t rmat_attempt_cap(std::int64_t target_edges);

/// End of the next window after `covered` attempts: the first window covers
/// target + target / 4 attempts, each later one doubles the covered range,
/// and none passes rmat_attempt_cap.
std::int64_t rmat_window_end(std::int64_t covered, std::int64_t target_edges);

/// Appends the draws of attempts [a0, a1) to `out` in attempt order, self
/// loops dropped. Runs on the calling thread's engine over a fixed chunk grid,
/// so the output is the same for any thread budget.
void rmat_draws(const RmatShape& shape, std::int64_t a0, std::int64_t a1,
                std::vector<RmatDraw>& out);

}  // namespace detail

}  // namespace plexus::graph
