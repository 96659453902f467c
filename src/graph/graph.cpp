#include "graph/graph.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace plexus::graph {

sparse::Csr Graph::adjacency() const { return sparse::Csr::from_coo(edges, false); }

std::vector<std::int64_t> Graph::degrees() const {
  std::vector<std::int64_t> deg(static_cast<std::size_t>(num_nodes), 0);
  for (std::int64_t i = 0; i < edges.nnz(); ++i) {
    deg[static_cast<std::size_t>(edges.rows[static_cast<std::size_t>(i)])]++;
  }
  return deg;
}

std::int64_t Graph::train_count() const {
  std::int64_t c = 0;
  for (const auto m : train_mask) c += m != 0 ? 1 : 0;
  return c;
}

void Graph::validate() const {
  PLEXUS_CHECK(features.rows() == num_nodes, "features rows != num_nodes");
  PLEXUS_CHECK(static_cast<std::int64_t>(labels.size()) == num_nodes, "labels size");
  PLEXUS_CHECK(static_cast<std::int64_t>(train_mask.size()) == num_nodes, "train_mask size");
  PLEXUS_CHECK(static_cast<std::int64_t>(val_mask.size()) == num_nodes, "val_mask size");
  PLEXUS_CHECK(static_cast<std::int64_t>(test_mask.size()) == num_nodes, "test_mask size");
  for (const auto l : labels) {
    PLEXUS_CHECK(l >= 0 && l < num_classes, "label out of range");
  }
  for (std::int64_t i = 0; i < edges.nnz(); ++i) {
    const auto r = edges.rows[static_cast<std::size_t>(i)];
    const auto c = edges.cols[static_cast<std::size_t>(i)];
    PLEXUS_CHECK(r >= 0 && r < num_nodes && c >= 0 && c < num_nodes, "edge out of range");
    PLEXUS_CHECK(r != c, "self loop in raw edge list");
  }
  // Symmetric edge set: the (min, max) keys of the edges stored as u -> v
  // with u < v and of those stored with u > v must be the same multiset.
  std::vector<std::pair<std::int64_t, std::int64_t>> up;
  std::vector<std::pair<std::int64_t, std::int64_t>> down;
  for (std::int64_t i = 0; i < edges.nnz(); ++i) {
    const std::int64_t r = edges.rows[static_cast<std::size_t>(i)];
    const std::int64_t c = edges.cols[static_cast<std::size_t>(i)];
    (r < c ? up : down).emplace_back(std::min(r, c), std::max(r, c));
  }
  std::sort(up.begin(), up.end());
  std::sort(down.begin(), down.end());
  if (up == down) return;
  // The smaller key at the first difference is the edge missing its reverse.
  const auto [u, d] = std::mismatch(up.begin(), up.end(), down.begin(), down.end());
  const bool in_up = d == down.end() || (u != up.end() && *u < *d);
  const auto [lo, hi] = in_up ? *u : *d;
  const auto from = in_up ? lo : hi;
  const auto to = in_up ? hi : lo;
  PLEXUS_CHECK(false, "edge set not symmetric: edge " + std::to_string(from) + " -> " +
                          std::to_string(to) + " has no reverse");
}

dense::Matrix synthetic_features(std::int64_t num_nodes, std::int64_t dim,
                                 const std::vector<std::int32_t>& labels, float label_signal,
                                 std::uint64_t seed) {
  const util::CounterRng rng(util::hash_combine(seed, 0xfea7));
  dense::Matrix f(num_nodes, dim);
  util::parallel_for(
      0, num_nodes,
      [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          float* row = f.row(i);
          for (std::int64_t k = 0; k < dim; ++k) {
            row[k] = rng.uniform_at(static_cast<std::uint64_t>(i * dim + k), -1.0f, 1.0f);
          }
          if (label_signal != 0.0f && !labels.empty()) {
            row[labels[static_cast<std::size_t>(i)] % dim] += label_signal;
          }
        }
      },
      num_nodes * dim);
  return f;
}

std::vector<std::int32_t> degree_based_labels(const std::vector<std::int64_t>& degrees,
                                              std::int64_t num_classes, std::uint64_t seed) {
  util::CounterRng rng(util::hash_combine(seed, 0x1abe1));
  std::vector<std::int32_t> labels(degrees.size());
  for (std::size_t i = 0; i < degrees.size(); ++i) {
    const double jitter = rng.uniform_at(static_cast<std::uint64_t>(i)) * 1.5;
    const double v = std::log2(static_cast<double>(degrees[i]) + 1.0) + jitter;
    labels[i] = static_cast<std::int32_t>(
        std::min<std::int64_t>(num_classes - 1, static_cast<std::int64_t>(v)));
  }
  return labels;
}

void make_split_masks(std::int64_t num_nodes, double train_frac, double val_frac,
                      std::uint64_t seed, std::vector<std::uint8_t>& train,
                      std::vector<std::uint8_t>& val, std::vector<std::uint8_t>& test) {
  train.assign(static_cast<std::size_t>(num_nodes), 0);
  val.assign(static_cast<std::size_t>(num_nodes), 0);
  test.assign(static_cast<std::size_t>(num_nodes), 0);
  util::CounterRng rng(util::hash_combine(seed, 0x5117));
  for (std::int64_t i = 0; i < num_nodes; ++i) {
    const double u = rng.uniform_at(static_cast<std::uint64_t>(i));
    if (u < train_frac) {
      train[static_cast<std::size_t>(i)] = 1;
    } else if (u < train_frac + val_frac) {
      val[static_cast<std::size_t>(i)] = 1;
    } else {
      test[static_cast<std::size_t>(i)] = 1;
    }
  }
}

}  // namespace plexus::graph
