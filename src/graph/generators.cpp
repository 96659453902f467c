#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace plexus::graph {

namespace {

/// Key for the dedup set; undirected edges stored with min endpoint first.
std::uint64_t edge_key(std::int64_t u, std::int64_t v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | static_cast<std::uint64_t>(v);
}

/// Symmetric COO (both directions, edge i at entries 2i and 2i + 1) of the
/// `m` undirected edges `edge_at(0..m)` returns as (u, v) pairs.
template <typename EdgeAt>
sparse::Coo to_symmetric_coo(std::int64_t num_nodes, std::int64_t m, EdgeAt edge_at) {
  sparse::Coo coo;
  coo.num_rows = num_nodes;
  coo.num_cols = num_nodes;
  coo.rows.resize(static_cast<std::size_t>(2 * m));
  coo.cols.resize(static_cast<std::size_t>(2 * m));
  coo.vals.assign(static_cast<std::size_t>(2 * m), 1.0f);
  util::parallel_for(
      0, m,
      [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          const auto [u, v] = edge_at(i);
          const auto k = static_cast<std::size_t>(2 * i);
          coo.rows[k] = u;
          coo.cols[k] = static_cast<std::int32_t>(v);
          coo.rows[k + 1] = v;
          coo.cols[k + 1] = static_cast<std::int32_t>(u);
        }
      },
      2 * m);
  return coo;
}

sparse::Coo to_symmetric_coo(std::int64_t num_nodes,
                             const std::vector<std::pair<std::int64_t, std::int64_t>>& edges) {
  return to_symmetric_coo(num_nodes, static_cast<std::int64_t>(edges.size()),
                          [&](std::int64_t i) { return edges[static_cast<std::size_t>(i)]; });
}

/// Attempts per chunk of detail::rmat_draws: fixed, so the chunk grid does
/// not depend on the thread budget.
constexpr std::int64_t kAttemptGrain = std::int64_t{1} << 14;

}  // namespace

namespace detail {

std::int64_t rmat_attempt_cap(std::int64_t target_edges) { return target_edges * 8; }

std::int64_t rmat_window_end(std::int64_t covered, std::int64_t target_edges) {
  const std::int64_t next = covered == 0 ? target_edges + target_edges / 4 : 2 * covered;
  return std::min(next, rmat_attempt_cap(target_edges));
}

void rmat_draws(const RmatShape& shape, std::int64_t a0, std::int64_t a1,
                std::vector<RmatDraw>& out) {
  if (a1 <= a0) return;
  const std::size_t base = out.size();
  out.resize(base + static_cast<std::size_t>(a1 - a0));
  const std::uint64_t stream_seed = util::hash_combine(shape.seed, 0x27a7);
  const auto draws_per_attempt = 2 * static_cast<std::uint64_t>(shape.scale);
  util::parallel_for_grain(a0, a1, kAttemptGrain, [&](std::int64_t, std::int64_t c0,
                                                      std::int64_t c1) {
    util::SplitMix64 rng(stream_seed);
    rng.skip(draws_per_attempt * static_cast<std::uint64_t>(c0));
    for (std::int64_t i = c0; i < c1; ++i) {
      std::uint64_t u = 0;
      std::uint64_t v = 0;
      for (int level = 0; level < shape.scale; ++level) {
        const double r = rng.next_double();
        // Quadrant choice with light noise so the recursion doesn't self-repeat.
        const double aa = shape.a + 0.05 * (rng.next_double() - 0.5);
        const double bb = shape.b;
        const double cc = shape.c;
        u <<= 1;
        v <<= 1;
        if (r < aa) {
          // top-left
        } else if (r < aa + bb) {
          v |= 1;
        } else if (r < aa + bb + cc) {
          u |= 1;
        } else {
          u |= 1;
          v |= 1;
        }
      }
      out[base + static_cast<std::size_t>(i - a0)] =
          RmatDraw{u << 32 | v, static_cast<std::uint64_t>(i)};
    }
  });
  // Self loops consumed their draws above but are not edges.
  const auto self_loop = [](const RmatDraw& r) { return r.edge >> 32 == (r.edge & 0xffffffffULL); };
  out.erase(std::remove_if(out.begin() + static_cast<std::ptrdiff_t>(base), out.end(), self_loop),
            out.end());
}

}  // namespace detail

sparse::Coo rmat(int scale, std::int64_t target_edges, double a, double b, double c, double d,
                 std::uint64_t seed) {
  PLEXUS_CHECK(scale >= 1 && scale < 31, "rmat scale out of range");
  PLEXUS_CHECK(std::abs(a + b + c + d - 1.0) < 1e-9, "rmat probabilities must sum to 1");
  const std::int64_t n = std::int64_t{1} << scale;
  const detail::RmatShape shape{scale, a, b, c, seed};
  const auto same_pair = [](const detail::RmatDraw& x, const detail::RmatDraw& y) {
    return detail::rmat_pair_key(x.edge) == detail::rmat_pair_key(y.edge);
  };

  // First draw of every distinct pair seen so far, in pair order. The sort
  // scratch lives as long as the two buffers so the three are freed together.
  std::vector<detail::RmatDraw> firsts;
  std::vector<detail::RmatDraw> window;
  std::vector<detail::RmatDraw> scratch;
  const std::int64_t cap = detail::rmat_attempt_cap(target_edges);
  for (std::int64_t covered = 0;
       covered < cap && static_cast<std::int64_t>(firsts.size()) < target_edges;) {
    const std::int64_t end = detail::rmat_window_end(covered, target_edges);
    window.clear();
    detail::rmat_draws(shape, covered, end, window);
    util::parallel_sort(window, detail::RmatDrawByPair{}, scratch);
    window.erase(std::unique(window.begin(), window.end(), same_pair), window.end());
    if (firsts.empty()) {
      firsts.swap(window);
    } else {
      // Pairs seen in an earlier window keep their earlier (smaller) attempt.
      std::vector<detail::RmatDraw> merged(firsts.size() + window.size());
      std::merge(firsts.begin(), firsts.end(), window.begin(), window.end(), merged.begin(),
                 detail::RmatDrawByPair{});
      merged.erase(std::unique(merged.begin(), merged.end(), same_pair), merged.end());
      firsts.swap(merged);
    }
    covered = end;
  }
  // The accepted edges: the first target_edges pairs in attempt order.
  util::parallel_sort(firsts, detail::RmatDrawByAttempt{}, scratch);
  const auto m = std::clamp<std::int64_t>(target_edges, 0, static_cast<std::int64_t>(firsts.size()));
  return to_symmetric_coo(n, m, [&](std::int64_t i) {
    const std::uint64_t e = firsts[static_cast<std::size_t>(i)].edge;
    return std::pair<std::int64_t, std::int64_t>(static_cast<std::int64_t>(e >> 32),
                                                 static_cast<std::int64_t>(e & 0xffffffffULL));
  });
}

sparse::Coo community_graph(std::int64_t num_nodes, std::int64_t community_size,
                            double avg_degree, double p_in, std::uint64_t seed) {
  PLEXUS_CHECK(num_nodes > 1 && community_size > 1, "community_graph sizes");
  util::SplitMix64 rng(util::hash_combine(seed, 0xc0330));

  // Contiguous community boundaries with +-50% size jitter.
  std::vector<std::int64_t> starts{0};
  while (starts.back() < num_nodes) {
    const auto sz = static_cast<std::int64_t>(
        static_cast<double>(community_size) * (0.5 + rng.next_double()));
    starts.push_back(std::min(num_nodes, starts.back() + std::max<std::int64_t>(2, sz)));
  }
  const std::int64_t num_comms = static_cast<std::int64_t>(starts.size()) - 1;

  auto community_of = [&](std::int64_t node) {
    const auto it = std::upper_bound(starts.begin(), starts.end(), node);
    return static_cast<std::int64_t>(it - starts.begin()) - 1;
  };

  const auto target_edges =
      static_cast<std::int64_t>(static_cast<double>(num_nodes) * avg_degree / 2.0);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(static_cast<std::size_t>(target_edges) * 2);
  std::vector<std::pair<std::int64_t, std::int64_t>> edges;
  edges.reserve(static_cast<std::size_t>(target_edges));

  const std::int64_t max_attempts = target_edges * 8;
  std::int64_t attempts = 0;
  while (static_cast<std::int64_t>(edges.size()) < target_edges && attempts < max_attempts) {
    ++attempts;
    const auto u = static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(num_nodes)));
    std::int64_t v;
    if (rng.next_double() < p_in) {
      const std::int64_t comm = community_of(u);
      const std::int64_t lo = starts[static_cast<std::size_t>(comm)];
      const std::int64_t hi = starts[static_cast<std::size_t>(comm) + 1];
      v = lo + static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(hi - lo)));
    } else if (rng.next_double() < 0.3) {
      // Mild preferential attachment: reuse an endpoint of an existing edge.
      if (edges.empty()) continue;
      const auto& e = edges[static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint64_t>(edges.size())))];
      v = rng.next_double() < 0.5 ? e.first : e.second;
    } else {
      v = static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(num_nodes)));
    }
    if (u == v) continue;
    if (seen.insert(edge_key(u, v)).second) edges.emplace_back(u, v);
  }
  (void)num_comms;
  return to_symmetric_coo(num_nodes, edges);
}

sparse::Coo road_network(std::int64_t width, std::int64_t height, double keep_prob,
                         double shortcut_frac, std::uint64_t seed) {
  PLEXUS_CHECK(width > 1 && height > 1, "road_network dims");
  const std::int64_t n = width * height;
  util::SplitMix64 rng(util::hash_combine(seed, 0x20ad));

  std::vector<std::pair<std::int64_t, std::int64_t>> edges;
  edges.reserve(static_cast<std::size_t>(static_cast<double>(2 * n) * keep_prob));
  for (std::int64_t y = 0; y < height; ++y) {
    for (std::int64_t x = 0; x < width; ++x) {
      const std::int64_t node = y * width + x;
      if (x + 1 < width && rng.next_double() < keep_prob) edges.emplace_back(node, node + 1);
      if (y + 1 < height && rng.next_double() < keep_prob) edges.emplace_back(node, node + width);
    }
  }
  const auto num_shortcuts = static_cast<std::int64_t>(static_cast<double>(n) * shortcut_frac);
  std::unordered_set<std::uint64_t> seen;
  for (const auto& [u, v] : edges) seen.insert(edge_key(u, v));
  for (std::int64_t i = 0; i < num_shortcuts; ++i) {
    const auto u = static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(n)));
    const auto v = static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    if (seen.insert(edge_key(u, v)).second) edges.emplace_back(u, v);
  }
  return to_symmetric_coo(n, edges);
}

sparse::Coo erdos_renyi(std::int64_t num_nodes, std::int64_t target_edges, std::uint64_t seed) {
  PLEXUS_CHECK(num_nodes > 1, "erdos_renyi size");
  util::SplitMix64 rng(util::hash_combine(seed, 0xe12d05));
  std::unordered_set<std::uint64_t> seen;
  std::vector<std::pair<std::int64_t, std::int64_t>> edges;
  const std::int64_t max_attempts = target_edges * 10;
  std::int64_t attempts = 0;
  while (static_cast<std::int64_t>(edges.size()) < target_edges && attempts < max_attempts) {
    ++attempts;
    const auto u = static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(num_nodes)));
    const auto v = static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(num_nodes)));
    if (u == v) continue;
    if (seen.insert(edge_key(u, v)).second) edges.emplace_back(u, v);
  }
  return to_symmetric_coo(num_nodes, edges);
}

}  // namespace plexus::graph
