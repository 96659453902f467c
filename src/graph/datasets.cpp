#include "graph/datasets.hpp"

#include <cmath>

#include "graph/generators.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace plexus::graph {

const std::vector<DatasetInfo>& paper_datasets() {
  // Table 4 of the paper, verbatim.
  static const std::vector<DatasetInfo> kDatasets = {
      {"Reddit", 232'965, 57'307'946, 114'848'857, 602, 41, GraphClass::Social},
      {"ogbn-products", 2'449'029, 61'859'140, 126'167'053, 100, 47, GraphClass::CoPurchase},
      {"Isolate-3-8M", 8'745'542, 654'620'251, 1'317'986'044, 128, 32, GraphClass::ProteinSim},
      {"products-14M", 14'249'639, 115'394'635, 245'036'907, 128, 32, GraphClass::CoPurchase},
      {"europe_osm", 50'912'018, 54'054'660, 159'021'338, 128, 32, GraphClass::RoadNetwork},
      {"ogbn-papers100M", 111'059'956, 1'615'685'872, 1'726'745'828, 100, 172,
       GraphClass::Citation},
  };
  return kDatasets;
}

const DatasetInfo& dataset_info(const std::string& name) {
  for (const auto& d : paper_datasets()) {
    if (d.name == name) return d;
  }
  PLEXUS_CHECK(false, "unknown dataset: " + name);
  __builtin_unreachable();
}

namespace {

Graph finalize_graph(std::string name, sparse::Coo edges, std::int64_t feature_dim,
                     std::int64_t num_classes, float label_signal, std::uint64_t seed) {
  Graph g;
  g.name = std::move(name);
  g.num_nodes = edges.num_rows;
  g.num_classes = num_classes;
  g.edges = std::move(edges);

  std::vector<std::int64_t> deg(static_cast<std::size_t>(g.num_nodes), 0);
  for (std::int64_t i = 0; i < g.edges.nnz(); ++i) {
    deg[static_cast<std::size_t>(g.edges.rows[static_cast<std::size_t>(i)])]++;
  }
  g.labels = degree_based_labels(deg, num_classes, seed);
  g.features = synthetic_features(g.num_nodes, feature_dim, g.labels, label_signal, seed);
  make_split_masks(g.num_nodes, 0.6, 0.2, seed, g.train_mask, g.val_mask, g.test_mask);
  return g;
}

}  // namespace

Graph make_proxy(const DatasetInfo& info, std::int64_t target_nodes, std::uint64_t seed) {
  PLEXUS_CHECK(target_nodes >= 64, "proxy too small");
  const util::ScopedProcessThreads setup_threads;
  const double avg_deg = info.avg_degree();
  sparse::Coo edges;
  switch (info.kind) {
    case GraphClass::Social:
    case GraphClass::CoPurchase:
    case GraphClass::Citation: {
      // Power-law Kronecker; denser graphs get a more skewed partition matrix.
      const int scale = static_cast<int>(std::ceil(std::log2(static_cast<double>(target_nodes))));
      const auto n = std::int64_t{1} << scale;
      const auto target_edges =
          static_cast<std::int64_t>(static_cast<double>(n) * avg_deg / 2.0);
      const double a = info.kind == GraphClass::Social ? 0.55 : 0.57;
      edges = rmat(scale, target_edges, a, 0.19, 0.19, 1.0 - a - 0.38, seed);
      break;
    }
    case GraphClass::ProteinSim: {
      // HipMCL isolates: dense clusters of a few hundred proteins.
      const std::int64_t comm = std::max<std::int64_t>(32, target_nodes / 256);
      edges = community_graph(target_nodes, comm, avg_deg, 0.8, seed);
      break;
    }
    case GraphClass::RoadNetwork: {
      const auto side = static_cast<std::int64_t>(std::sqrt(static_cast<double>(target_nodes)));
      // Lattice has <= 2 directed edges per node per direction; keep_prob tuned
      // so the symmetrised average degree matches the dataset (~2 * E / N).
      const double keep = std::min(1.0, avg_deg / 2.0);
      edges = road_network(side, side, keep, 0.01, seed);
      break;
    }
  }
  return finalize_graph(info.name + "-proxy", std::move(edges), info.feature_dim,
                        info.num_classes, /*label_signal=*/0.5f, seed);
}

Graph make_test_graph(std::int64_t num_nodes, double avg_degree, std::int64_t feature_dim,
                      std::int64_t num_classes, std::uint64_t seed) {
  const auto target_edges =
      static_cast<std::int64_t>(static_cast<double>(num_nodes) * avg_degree / 2.0);
  sparse::Coo edges = erdos_renyi(num_nodes, target_edges, seed);
  return finalize_graph("test-graph", std::move(edges), feature_dim, num_classes,
                        /*label_signal=*/1.0f, seed);
}

}  // namespace plexus::graph
