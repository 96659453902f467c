// Tests for graph generators, dataset registry, proxies, labels and masks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/preprocess.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/rmat_shards.hpp"
#include "loader/shard_io.hpp"
#include "sparse/partition2d.hpp"

namespace pg = plexus::graph;
namespace ps = plexus::sparse;

namespace {

/// Edge list must be symmetric, deduplicated and self-loop free.
void expect_valid_edge_structure(const ps::Coo& edges) {
  std::set<std::pair<std::int64_t, std::int64_t>> seen;
  for (std::int64_t i = 0; i < edges.nnz(); ++i) {
    const auto r = edges.rows[static_cast<std::size_t>(i)];
    const auto c = static_cast<std::int64_t>(edges.cols[static_cast<std::size_t>(i)]);
    EXPECT_NE(r, c) << "self loop";
    EXPECT_TRUE(seen.insert({r, c}).second) << "duplicate edge " << r << "->" << c;
  }
  for (const auto& [r, c] : seen) {
    EXPECT_TRUE(seen.count({c, r})) << "missing reverse edge " << c << "->" << r;
  }
}

}  // namespace

TEST(Generators, RmatBasicStructure) {
  const auto coo = pg::rmat(8, 500, 0.57, 0.19, 0.19, 0.05, 1);
  EXPECT_EQ(coo.num_rows, 256);
  expect_valid_edge_structure(coo);
  EXPECT_GT(coo.nnz(), 800);  // ~2x 500 directed, minus collisions
}

TEST(Generators, RmatIsDeterministic) {
  const auto a = pg::rmat(7, 200, 0.57, 0.19, 0.19, 0.05, 9);
  const auto b = pg::rmat(7, 200, 0.57, 0.19, 0.19, 0.05, 9);
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.cols, b.cols);
}

TEST(Generators, RmatIsSkewed) {
  // Power-law head: max degree far above mean.
  const auto coo = pg::rmat(10, 4000, 0.57, 0.19, 0.19, 0.05, 3);
  std::vector<std::int64_t> deg(1024, 0);
  for (std::int64_t i = 0; i < coo.nnz(); ++i) {
    deg[static_cast<std::size_t>(coo.rows[static_cast<std::size_t>(i)])]++;
  }
  const auto mx = *std::max_element(deg.begin(), deg.end());
  const double mean = static_cast<double>(coo.nnz()) / 1024.0;
  EXPECT_GT(static_cast<double>(mx), 5.0 * mean);
}

TEST(Generators, CommunityGraphLocality) {
  const auto coo = pg::community_graph(1000, 50, 12.0, 0.8, 4);
  expect_valid_edge_structure(coo);
  // Most edges should be short-range (inside a contiguous community).
  std::int64_t local = 0;
  for (std::int64_t i = 0; i < coo.nnz(); ++i) {
    const auto d = std::abs(coo.rows[static_cast<std::size_t>(i)] -
                            static_cast<std::int64_t>(coo.cols[static_cast<std::size_t>(i)]));
    if (d <= 80) ++local;
  }
  EXPECT_GT(static_cast<double>(local) / static_cast<double>(coo.nnz()), 0.5);
}

TEST(Generators, RoadNetworkNearDiagonal) {
  const auto coo = pg::road_network(32, 32, 0.55, 0.01, 5);
  expect_valid_edge_structure(coo);
  // Lattice adjacency with row-major ids concentrates nnz near the diagonal:
  // the paper's original-ordering imbalance (Table 3, 7.70 for europe_osm).
  const auto s = ps::grid_imbalance(ps::Csr::from_coo(coo, false), 8, 8);
  EXPECT_GT(s.max_over_mean, 4.0);
}

TEST(Generators, ErdosRenyiDegreeConcentration) {
  const auto coo = pg::erdos_renyi(500, 2500, 6);
  expect_valid_edge_structure(coo);
  EXPECT_NEAR(static_cast<double>(coo.nnz()), 5000.0, 500.0);
}

TEST(Datasets, RegistryMatchesTable4) {
  const auto& all = pg::paper_datasets();
  ASSERT_EQ(all.size(), 6u);
  const auto& papers = pg::dataset_info("ogbn-papers100M");
  EXPECT_EQ(papers.num_nodes, 111'059'956);
  EXPECT_EQ(papers.num_edges, 1'615'685'872);
  EXPECT_EQ(papers.num_classes, 172);
  const auto& reddit = pg::dataset_info("Reddit");
  EXPECT_EQ(reddit.feature_dim, 602);
  EXPECT_THROW(pg::dataset_info("nope"), std::runtime_error);
}

TEST(Datasets, ProxyPreservesShape) {
  const auto& info = pg::dataset_info("ogbn-products");
  const auto g = pg::make_proxy(info, 4000, 7);
  g.validate();
  EXPECT_GE(g.num_nodes, 4000);
  EXPECT_LE(g.num_nodes, 8192);
  EXPECT_EQ(g.features.cols(), info.feature_dim);
  EXPECT_EQ(g.num_classes, info.num_classes);
  // Average degree within 2x of the real dataset's.
  const double deg = static_cast<double>(g.num_edges()) / static_cast<double>(g.num_nodes) / 2.0;
  EXPECT_GT(deg, info.avg_degree() * 0.4);
  EXPECT_LT(deg, info.avg_degree() * 2.5);
}

TEST(Datasets, RoadProxyUsesLattice) {
  const auto g = pg::make_proxy(pg::dataset_info("europe_osm"), 10000, 8);
  g.validate();
  const double deg = 2.0 * static_cast<double>(g.num_edges()) / 2.0 /
                     static_cast<double>(g.num_nodes);
  EXPECT_LT(deg, 4.0);  // road networks are very sparse
}

TEST(Datasets, TestGraphIsUsable) {
  const auto g = pg::make_test_graph(200, 8.0, 16, 4, 11);
  g.validate();
  EXPECT_EQ(g.num_classes, 4);
  EXPECT_GT(g.train_count(), 80);
}

TEST(Graph, DegreeBasedLabelsInRange) {
  const std::vector<std::int64_t> degrees{0, 1, 5, 100, 100000};
  const auto labels = pg::degree_based_labels(degrees, 8, 3);
  for (const auto l : labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, 8);
  }
}

TEST(Graph, SplitMasksPartition) {
  std::vector<std::uint8_t> tr;
  std::vector<std::uint8_t> va;
  std::vector<std::uint8_t> te;
  pg::make_split_masks(1000, 0.6, 0.2, 13, tr, va, te);
  std::int64_t ntr = 0;
  std::int64_t nva = 0;
  for (std::int64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(tr[static_cast<std::size_t>(i)] + va[static_cast<std::size_t>(i)] +
                  te[static_cast<std::size_t>(i)],
              1);
    ntr += tr[static_cast<std::size_t>(i)];
    nva += va[static_cast<std::size_t>(i)];
  }
  EXPECT_NEAR(static_cast<double>(ntr), 600.0, 60.0);
  EXPECT_NEAR(static_cast<double>(nva), 200.0, 50.0);
}

TEST(Graph, FeaturesCarryLabelSignal) {
  const std::vector<std::int32_t> labels{0, 1, 2, 3};
  const auto f = pg::synthetic_features(4, 8, labels, 2.0f, 5);
  for (std::int64_t i = 0; i < 4; ++i) {
    // The label coordinate should stand out above the noise floor of 1.
    EXPECT_GT(f.at(i, labels[static_cast<std::size_t>(i)] % 8), 0.9f);
  }
}

TEST(Graph, AdjacencyIsSymmetricPattern) {
  const auto g = pg::make_test_graph(100, 6.0, 8, 3, 17);
  const auto a = g.adjacency();
  const auto at = a.transposed();
  EXPECT_TRUE(ps::Csr::equal(a, at));
}

TEST(Graph, ValidateRejectsOneDirectedEdge) {
  auto g = pg::make_test_graph(100, 6.0, 8, 3, 17);
  g.validate();
  // Drop the first stored edge: its reverse stays behind, unmatched.
  const auto from = g.edges.rows.front();
  const auto to = static_cast<std::int64_t>(g.edges.cols.front());
  g.edges.rows.erase(g.edges.rows.begin());
  g.edges.cols.erase(g.edges.cols.begin());
  g.edges.vals.erase(g.edges.vals.begin());
  try {
    g.validate();
    FAIL() << "asymmetric edge set accepted";
  } catch (const std::runtime_error& e) {
    const std::string want = "edge " + std::to_string(to) + " -> " + std::to_string(from) +
                             " has no reverse";
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos) << e.what();
  }
}

// ---- The stored A^T ----------------------------------------------------
//
// A~ = D^-1/2 (A + I) D^-1/2 of a symmetric edge set is bitwise symmetric
// (each value is inv_sqrt[u] * inv_sqrt[v], a commutative product), so the
// Double scheme's two versions are transposes of each other and a single
// version is its own transpose. The streamed backward pass reads its A^T
// blocks from the other version on disk instead of transposing.

namespace {

void expect_bitwise_equal(const ps::Csr& got, const ps::Csr& want) {
  ASSERT_TRUE(ps::Csr::equal(got, want, 0.0f));
  ASSERT_EQ(got.vals().size(), want.vals().size());
  EXPECT_EQ(std::memcmp(got.vals().data(), want.vals().data(), want.vals().size_bytes()), 0);
}

ps::Csr read_block_file(const std::string& path) {
  const auto mapped = plexus::io::MappedBlock::open(path);
  const auto b = plexus::io::parse_adjacency_block(*mapped);
  return ps::Csr::from_parts(b.rows, b.cols, {b.row_ptr.begin(), b.row_ptr.end()},
                             {b.col_idx.begin(), b.col_idx.end()},
                             {b.vals.begin(), b.vals.end()});
}

}  // namespace

TEST(StoredTranspose, PreprocessedVersionsAreTransposesBitwise) {
  for (const char* name : {"ogbn-products", "europe_osm"}) {
    for (const std::uint64_t seed : {1u, 7u}) {
      SCOPED_TRACE(std::string(name) + " seed " + std::to_string(seed));
      const auto g = pg::make_proxy(pg::dataset_info(name), 4096, seed);
      g.validate();
      const auto dbl =
          plexus::core::preprocess_graph(g, plexus::core::PermutationScheme::Double, 2, 4, seed);
      expect_bitwise_equal(dbl.adj_even.transposed(), dbl.adj_odd);
      for (const auto scheme :
           {plexus::core::PermutationScheme::None, plexus::core::PermutationScheme::Single}) {
        const auto one = plexus::core::preprocess_graph(g, scheme, 2, 4, seed);
        expect_bitwise_equal(one.adj_even.transposed(), one.adj_even);
      }
    }
  }
}

TEST(StoredTranspose, RmatShardBlocksAreTransposesBitwise) {
  auto spec = pg::proxy_shards_spec(pg::dataset_info("ogbn-products"), 4096, 5);
  spec.scheme = 2;
  spec.pad_multiple = 3;
  spec.parts = 3;
  const auto dir =
      (std::filesystem::temp_directory_path() / "plexus_stored_transpose_shards").string();
  std::filesystem::remove_all(dir);
  pg::rmat_to_shards(dir, spec);
  for (int r = 0; r < spec.parts; ++r) {
    for (int c = 0; c < spec.parts; ++c) {
      SCOPED_TRACE("block " + std::to_string(r) + "," + std::to_string(c));
      const auto adj = read_block_file(plexus::io::adjacency_block_path(dir, "adj", r, c));
      const auto adjo = read_block_file(plexus::io::adjacency_block_path(dir, "adjo", c, r));
      EXPECT_GT(adj.nnz(), 0);
      expect_bitwise_equal(adj.transposed(), adjo);
    }
  }
  std::filesystem::remove_all(dir);
}

// ---- Setup golden hashes ------------------------------------------------
//
// 64-bit FNV-1a hashes of everything setup produces: make_proxy's edge list
// and features, preprocess_graph's permuted CSRs (values by bit pattern),
// and the bytes of one rmat_to_shards directory. They pin the exact output
// of the generator, the CSR builds and the shard writer, so a change that
// moves both the in-memory and the streamed path together (which the
// streamed-vs-in-memory byte equality in test_rmat_shards cannot see) fails
// here. Every case runs under PLEXUS_THREADS 1, 2 and 4: setup output must
// not depend on the thread budget.

namespace {

class Fnv1a {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void span(const T* p, std::size_t n) {
    bytes(n == 0 ? nullptr : p, n * sizeof(T));
  }
  template <typename T>
  void vec(const std::vector<T>& v) {
    span(v.data(), v.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

#define EXPECT_HASH(got, want) EXPECT_EQ(hex(got), hex(want)) << #got

std::uint64_t hash_coo(const ps::Coo& coo) {
  Fnv1a h;
  h.bytes(&coo.num_rows, sizeof(coo.num_rows));
  h.bytes(&coo.num_cols, sizeof(coo.num_cols));
  h.vec(coo.rows);
  h.vec(coo.cols);
  h.vec(coo.vals);
  return h.value();
}

std::uint64_t hash_csr(const ps::Csr& a) {
  Fnv1a h;
  const std::int64_t dims[2] = {a.rows(), a.cols()};
  h.span(dims, 2);
  h.span(a.row_ptr().data(), a.row_ptr().size());
  h.span(a.col_idx().data(), a.col_idx().size());
  h.span(a.vals().data(), a.vals().size());
  return h.value();
}

std::uint64_t hash_matrix(const plexus::dense::Matrix& m) {
  Fnv1a h;
  const std::int64_t dims[2] = {m.rows(), m.cols()};
  h.span(dims, 2);
  for (std::int64_t r = 0; r < m.rows(); ++r) h.span(m.row(r), static_cast<std::size_t>(m.cols()));
  return h.value();
}

/// Features, labels and masks of a preprocessed dataset.
std::uint64_t hash_node_arrays(const plexus::core::PlexusDataset& ds) {
  Fnv1a h;
  const std::uint64_t f = hash_matrix(ds.features);
  h.bytes(&f, sizeof(f));
  h.vec(ds.labels);
  h.vec(ds.train_mask);
  h.vec(ds.val_mask);
  h.vec(ds.test_mask);
  return h.value();
}

/// File names, sizes and bytes of every regular file in `dir`, in name order.
std::uint64_t hash_dir(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.is_regular_file()) names.push_back(e.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  Fnv1a h;
  for (const auto& name : names) {
    std::ifstream in(dir + "/" + name, std::ios::binary);
    const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
    h.span(name.data(), name.size());
    const auto size = static_cast<std::uint64_t>(bytes.size());
    h.bytes(&size, sizeof(size));
    h.vec(bytes);
  }
  return h.value();
}

class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const char* value) {
    const char* prev = std::getenv("PLEXUS_THREADS");
    had_ = prev != nullptr;
    if (had_) prev_ = prev;
    ::setenv("PLEXUS_THREADS", value, 1);
  }
  ~ScopedThreadsEnv() {
    if (had_) {
      ::setenv("PLEXUS_THREADS", prev_.c_str(), 1);
    } else {
      ::unsetenv("PLEXUS_THREADS");
    }
  }

 private:
  bool had_ = false;
  std::string prev_;
};

constexpr const char* kThreadBudgets[] = {"1", "2", "4"};

struct ProxyGolden {
  std::int64_t nodes;
  std::uint64_t seed;
  std::uint64_t edges;
  std::uint64_t features;
  // preprocess_graph(num_layers 3, pad_multiple 8, seed 7), Double then Single.
  std::uint64_t double_even;
  std::uint64_t double_odd;
  std::uint64_t double_nodes;
  std::uint64_t single_even;
  std::uint64_t single_odd;
  std::uint64_t single_nodes;
};

constexpr ProxyGolden kProxyGolden[] = {
    {4096, 1,
     0x9056b1afc7fab911, 0x73279b70d77a1ab7, 0xa28ffde7136573b2,
     0xc7923887bdd710d8, 0x6173b7241966717b, 0x341b2bf336dbfa22,
     0x341b2bf336dbfa22, 0xd1032a643a8e0075},
    {4096, 7,
     0x964182fcb7389efd, 0x23fb2b40b0598826, 0x5e993f75cbba553f,
     0xbde86082cbee7460, 0x55f9dbfa20fb2ecc, 0xdbe66eaea2e0b687,
     0xdbe66eaea2e0b687, 0x3c11032b110ce7c2},
    {16384, 1,
     0xab16ff8161dc9f8d, 0x1a0fbdd6b72c7916, 0xfa69e512bbf28145,
     0xbeaebc133b80bf81, 0xba95db1f38889bf5, 0x53b91f51c44112a4,
     0x53b91f51c44112a4, 0x096d403457e58721},
    {16384, 7,
     0x2803a3409c7999e1, 0x373cc9251bc796d8, 0x31f08efa127d7c60,
     0xdcd8b28b19ded4c2, 0x9b10a5279706404b, 0x33a30ea55a96cde6,
     0x33a30ea55a96cde6, 0x58390848daf96559},
};

}  // namespace

TEST(SetupGolden, ProxyAndPreprocessHashesAreFixedForAnyThreadCount) {
  namespace pc = plexus::core;
  const auto& info = pg::dataset_info("ogbn-products");
  for (const char* threads : kThreadBudgets) {
    const ScopedThreadsEnv env(threads);
    for (const auto& gold : kProxyGolden) {
      SCOPED_TRACE(std::string("PLEXUS_THREADS=") + threads + " nodes=" +
                   std::to_string(gold.nodes) + " seed=" + std::to_string(gold.seed));
      const auto g = pg::make_proxy(info, gold.nodes, gold.seed);
      EXPECT_HASH(hash_coo(g.edges), gold.edges);
      EXPECT_HASH(hash_matrix(g.features), gold.features);
      const auto dd = pc::preprocess_graph(g, pc::PermutationScheme::Double, 3, 8, 7);
      EXPECT_HASH(hash_csr(dd.adj_even), gold.double_even);
      EXPECT_HASH(hash_csr(dd.adj_odd), gold.double_odd);
      EXPECT_HASH(hash_node_arrays(dd), gold.double_nodes);
      const auto ds = pc::preprocess_graph(g, pc::PermutationScheme::Single, 3, 8, 7);
      EXPECT_HASH(hash_csr(ds.adj_even), gold.single_even);
      EXPECT_HASH(hash_csr(ds.adj_odd), gold.single_odd);
      EXPECT_HASH(hash_node_arrays(ds), gold.single_nodes);
    }
  }
}

// Scale 5 holds 496 distinct undirected pairs, fewer than the 600 asked for:
// the generator exhausts its 8x attempt cap and returns the shortfall.
TEST(SetupGolden, RmatShortfallAtAttemptCapIsFixed) {
  for (const char* threads : kThreadBudgets) {
    const ScopedThreadsEnv env(threads);
    SCOPED_TRACE(std::string("PLEXUS_THREADS=") + threads);
    const auto coo = pg::rmat(5, 600, 0.57, 0.19, 0.19, 0.05, 3);
    EXPECT_LT(coo.nnz(), 2 * 600);
    EXPECT_HASH(hash_coo(coo), 0xa9258b2988141095ULL);
  }
}

TEST(SetupGolden, RmatToShardsDirectoryBytesAreFixed) {
  const auto& info = pg::dataset_info("ogbn-products");
  auto spec = pg::proxy_shards_spec(info, 4096, 5);
  spec.scheme = 2;
  spec.num_layers = 3;
  spec.pad_multiple = 4;
  spec.preprocess_seed = 7;
  spec.parts = 2;
  spec.chunk_edges = 4097;  // many spilled runs, split mid-row
  const auto dir =
      (std::filesystem::temp_directory_path() / "plexus_setup_golden_shards").string();
  for (const char* threads : kThreadBudgets) {
    const ScopedThreadsEnv env(threads);
    SCOPED_TRACE(std::string("PLEXUS_THREADS=") + threads);
    std::filesystem::remove_all(dir);
    const auto r = pg::rmat_to_shards(dir, spec);
    EXPECT_EQ(r.num_edges, spec.target_edges);
    EXPECT_HASH(hash_dir(dir), 0x33cd346843a14a2cULL);
  }
  std::filesystem::remove_all(dir);
}
