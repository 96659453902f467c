// Wall-clock benchmark harness: runs one workload of the ogbn-products proxy
// through the public training entry points, in the order core::train_plexus
// calls them, and times each call from here. Nothing inside the program is
// instrumented; spans are recorded around the calls this file makes.
//
//   perfbench_harness --workload=products-4rank --seed=1 --seconds=30 --trace=0
//                    --work-dir=DIR
//
// Prints one JSON document (the raw measurement) on stdout; perfbench/run.py
// turns it into metrics and checks. A run is a sequence of repetitions; each
// repetition sets the workload up from scratch (generation, preprocessing or
// shard writing, view open, model build) and trains a fixed number of
// epochs, so losses of every repetition must agree bitwise.
#include <sys/resource.h>

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "comm/world.hpp"
#include "core/dataset_view.hpp"
#include "core/grid.hpp"
#include "core/model.hpp"
#include "core/shard.hpp"
#include "core/trainer.hpp"
#include "dense/gemm.hpp"
#include "dense/optim.hpp"
#include "graph/datasets.hpp"
#include "graph/rmat_shards.hpp"
#include "perfmodel/host_fit.hpp"
#include "perfmodel/perfmodel.hpp"
#include "sim/cluster.hpp"
#include "sparse/spmm.hpp"
#include "util/arg_parser.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace {

namespace core = plexus::core;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// The ogbn-products proxy every workload trains; only the layout changes.
constexpr const char* kDataset = "ogbn-products";
constexpr std::int64_t kNodes = 131072;
// Epochs per repetition: epoch 1 carries lazy planning, the rest are steady.
constexpr int kEpochs = 4;

struct Workload {
  const char* name;
  plexus::sim::GridShape grid;
  bool stream;
  core::Aggregation agg;
};

/// Kernel threads per rank: the host's cores split evenly over the ranks.
int kernel_threads(const Workload& wl) {
  return std::max(1, plexus::util::hardware_threads() / wl.grid.size());
}

constexpr Workload kWorkloads[] = {
    {"products-1rank", {1, 1, 1}, false, core::Aggregation::Dense},
    {"products-4rank", {2, 1, 2}, false, core::Aggregation::Auto},
    {"products-stream", {2, 1, 2}, true, core::Aggregation::Dense},
};

/// Spans recorded by a traced repetition: name, interval, parent span, rank
/// (-1 = the harness's own thread) and the counters measured at the same boundary.
struct Span {
  int id = 0;
  int parent = -1;
  int rank = -1;
  std::string name;
  double t0 = 0.0;
  double t1 = 0.0;
  std::vector<std::pair<std::string, double>> args;
};

/// In-memory span store. Disabled (every call a no-op returning -1) outside
/// traced repetitions, so untraced timing pays nothing for it.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  void set_enabled(bool on) { enabled_ = on; }

  int open(std::string name, int parent, int rank = -1) {
    if (!enabled_) return -1;
    const double t = since_origin();
    std::lock_guard lock(mu_);
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{id, parent, rank, std::move(name), t, t, {}});
    return id;
  }

  void close(int id, std::vector<std::pair<std::string, double>> args = {}) {
    if (id < 0) return;
    const double t = since_origin();
    std::lock_guard lock(mu_);
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.t1 = t;
    s.args = std::move(args);
  }

  std::vector<Span> spans() const {
    std::lock_guard lock(mu_);
    return spans_;
  }

 private:
  double since_origin() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_;
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

/// Minimal JSON emitter for the raw measurement document.
class Json {
 public:
  Json& key(const std::string& k) {
    comma();
    quoted(k);
    out_ += ':';
    fresh_ = true;
    return *this;
  }
  Json& open(char c) {
    comma();
    out_ += c;
    fresh_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ += c;
    fresh_ = false;
    return *this;
  }
  Json& num(double v) {
    comma();
    if (!std::isfinite(v)) {
      out_ += "null";
    } else {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      out_ += buf;
    }
    return *this;
  }
  Json& str(const std::string& s) {
    comma();
    quoted(s);
    return *this;
  }
  Json& boolean(bool b) {
    comma();
    out_ += b ? "true" : "false";
    return *this;
  }
  const std::string& text() const { return out_; }

 private:
  /// Separator before every element but the first of an object or array.
  void comma() {
    if (!fresh_) out_ += ',';
    fresh_ = false;
  }
  void quoted(const std::string& s) {
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') out_ += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) out_ += c;
    }
    out_ += '"';
  }
  std::string out_;
  bool fresh_ = true;
};

struct EpochRecord {
  double wall_s = 0.0;  ///< rank 0: train_epoch start to reduced stats in hand
  core::EpochStats stats;  ///< cross-rank reduced
};

struct RepRecord {
  bool traced = false;
  double setup_s = 0.0;  ///< repetition start to the start of epoch 1
  double peak_rss_mb = 0.0;  ///< process peak RSS at the end of the repetition
  std::vector<EpochRecord> epochs;
};

/// Shapes and counters of one replayed kernel call.
struct KernelCall {
  const char* name;
  double flops;
  double bytes;
};

/// Replays the per-epoch kernel work of `rank` on its real adjacency blocks
/// (fetched through DatasetView::adjacency_block) with the kernel-thread
/// budget the rank thread already carries: for each layer the forward SpMM,
/// the combination GEMM, the dW and dX GEMMs, the backward SpMM over the
/// transpose, and the Adam steps. Each call is one span under `parent`.
void replay_kernels(Tracer& tracer, int parent, int rank, const core::DatasetView& view,
                    const core::Grid3D& grid, const core::DistGcn& model) {
  const auto coords = grid.coords_of(rank);
  const auto& dims = model.padded_dims();
  const int L = model.num_layers();
  const auto timed = [&](const KernelCall& k, auto&& fn) {
    const int id = tracer.open(k.name, parent, rank);
    fn();
    tracer.close(id, {{"flops", k.flops}, {"bytes", k.bytes}});
  };
  for (int l = 0; l < L; ++l) {
    const core::LayerRoles roles = core::roles_for_layer(l);
    const int version = view.scheme() == core::PermutationScheme::Double ? l % 2 : 0;
    const auto blk = core::matrix_shard(view.padded_nodes(), view.padded_nodes(), grid, coords,
                                        roles.r, roles.p);
    const int fetch = tracer.open("loader.fetch", parent, rank);
    const plexus::sparse::Csr a =
        view.adjacency_block(version, blk.rows.begin, blk.rows.end, blk.cols.begin, blk.cols.end);
    const plexus::sparse::Csr a_t = a.transposed();
    tracer.close(fetch, {{"nnz", static_cast<double>(a.nnz())}});

    const std::int64_t rows_r = blk.rows.size();
    const std::int64_t rows_p = blk.cols.size();
    const std::int64_t din = dims[static_cast<std::size_t>(l)] / grid.extent(roles.q);
    const std::int64_t dout = dims[static_cast<std::size_t>(l) + 1] / grid.extent(roles.p);
    const auto nnz = static_cast<double>(a.nnz());
    const auto spmm_bytes = [&](std::int64_t rows, std::int64_t k) {
      return nnz * (8.0 + 4.0 * static_cast<double>(k)) +
             static_cast<double>(rows) * (8.0 + 4.0 * static_cast<double>(k));
    };
    const auto gemm_call = [](const char* name, std::int64_t m, std::int64_t n, std::int64_t k) {
      const auto dm = static_cast<double>(m), dn = static_cast<double>(n),
                 dk = static_cast<double>(k);
      return KernelCall{name, 2.0 * dm * dn * dk, 4.0 * (dm * dk + dk * dn + dm * dn)};
    };

    plexus::dense::Matrix f_in(rows_p, din, 0.01f);
    plexus::dense::Matrix h(rows_r, din);
    plexus::dense::Matrix w(din, dout, 0.01f);
    plexus::dense::Matrix q(rows_r, dout);
    plexus::dense::Matrix dw(din, dout);
    plexus::dense::Matrix dh(rows_r, din);
    plexus::dense::Matrix df(rows_p, din);
    using plexus::dense::Trans;
    timed({"sparse.spmm", 2.0 * nnz * static_cast<double>(din), spmm_bytes(rows_r, din)},
          [&] { plexus::sparse::spmm(a, f_in, h); });
    timed(gemm_call("dense.gemm_fwd", rows_r, dout, din),
          [&] { plexus::dense::gemm(Trans::N, Trans::N, 1.0f, h, w, 0.0f, q); });
    timed(gemm_call("dense.gemm_dw", din, dout, rows_r),
          [&] { plexus::dense::gemm(Trans::T, Trans::N, 1.0f, h, q, 0.0f, dw); });
    timed(gemm_call("dense.gemm_dx", rows_r, din, dout),
          [&] { plexus::dense::gemm(Trans::N, Trans::T, 1.0f, q, w, 0.0f, dh); });
    timed({"sparse.spmm", 2.0 * nnz * static_cast<double>(din), spmm_bytes(rows_p, din)},
          [&] { plexus::sparse::spmm(a_t, dh, df); });

    // Adam over this rank's flat weight slice (1/R of the block) and, at
    // layer 0, over the trainable feature slice (1/R of the F_in block).
    std::vector<std::int64_t> slices{din * dout / grid.extent(roles.r)};
    if (l == 0) slices.push_back(rows_p * din / grid.extent(roles.r));
    for (const std::int64_t n : slices) {
      std::vector<float> p(static_cast<std::size_t>(n), 0.01f);
      std::vector<float> g(static_cast<std::size_t>(n), 0.001f);
      plexus::dense::Adam adam(p.size(), plexus::dense::AdamConfig{});
      timed({"dense.adam", 0.0, 28.0 * static_cast<double>(n)}, [&] { adam.step(p, g); });
    }
  }
}

std::int64_t comm_calls(const plexus::comm::Communicator& comm) {
  std::int64_t n = 0;
  for (const auto& e : comm.stats().by_op) n += e.calls;
  return n;
}

std::int64_t adjacency_file_bytes(const std::string& dir) {
  std::int64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().filename().string().rfind("adj", 0) == 0) {
      total += static_cast<std::int64_t>(entry.file_size());
    }
  }
  return total;
}

struct GraphFacts {
  std::int64_t nodes = 0;
  std::int64_t edges = 0;
  std::int64_t nnz = 0;
  std::int64_t feature_dim = 0;
  std::int64_t classes = 0;
};

/// One repetition: set up, build the model on every rank, train kEpochs.
RepRecord run_repetition(const Workload& wl, std::uint64_t seed, const std::string& work_dir,
                         bool traced, Tracer& tracer, GraphFacts& facts) {
  tracer.set_enabled(traced);
  RepRecord rec;
  rec.traced = traced;
  const auto& info = plexus::graph::dataset_info(kDataset);
  const int volume = wl.grid.size();

  core::TrainOptions opt;
  opt.grid = wl.grid;
  opt.model.hidden_dims = {128, 128};
  opt.model.options.agg_row_blocks = 8;
  opt.epochs = kEpochs;
  opt.intra_rank_threads = kernel_threads(wl);
  // Pinned, so PLEXUS_AGG / PLEXUS_BACKEND / PLEXUS_WIRE cannot change what
  // is measured.
  opt.aggregation = wl.agg;
  opt.backend = plexus::comm::Backend::Sim;
  opt.wire = plexus::comm::WirePrecision::Fp32;

  const auto rep_start = Clock::now();
  const int rep_span = tracer.open("rep", -1);
  const int setup_span = tracer.open("setup", rep_span);
  std::unique_ptr<core::PlexusDataset> dataset;  // resident workloads only
  std::unique_ptr<core::DatasetView> view_owner;
  if (wl.stream) {
    const std::string dir = work_dir + "/shards";
    fs::remove_all(dir);
    auto spec = plexus::graph::proxy_shards_spec(info, kNodes, seed);
    spec.scheme = static_cast<int>(opt.scheme);
    spec.num_layers = opt.model.num_layers();
    spec.pad_multiple = volume;
    spec.preprocess_seed = opt.preprocess_seed;
    spec.parts = volume;
    const int ws = tracer.open("loader.write_shards", setup_span);
    const auto r = plexus::graph::rmat_to_shards(dir, spec);
    tracer.close(ws, {{"bytes", static_cast<double>(r.bytes_written)}});
    // Budget: about half the adjacency bytes, so the cache must evict.
    opt.rss_budget_bytes = adjacency_file_bytes(dir) / 2;
    const int vo = tracer.open("loader.view_open", setup_span);
    view_owner = std::make_unique<core::ShardedDatasetView>(dir, opt.rss_budget_bytes);
    tracer.close(vo);
    facts.nodes = r.num_nodes;
    facts.edges = 2 * r.num_edges;  // directed, as graph::Graph::num_edges counts them
    facts.nnz = r.adjacency_nnz;
  } else {
    const int gp = tracer.open("graph.make_proxy", setup_span);
    auto g = std::make_unique<plexus::graph::Graph>(plexus::graph::make_proxy(info, kNodes, seed));
    tracer.close(gp, {{"nodes", static_cast<double>(g->num_nodes)},
                      {"edges", static_cast<double>(g->num_edges())}});
    const int pp = tracer.open("core.preprocess", setup_span);
    dataset = std::make_unique<core::PlexusDataset>(core::preprocess_graph(
        *g, opt.scheme, opt.model.num_layers(), volume, opt.preprocess_seed));
    tracer.close(pp);
    facts.nodes = g->num_nodes;
    facts.edges = g->num_edges();
    g.reset();
    view_owner = std::make_unique<core::InMemoryDatasetView>(*dataset);
    facts.nnz = view_owner->adjacency_nnz();
  }
  facts.feature_dim = view_owner->feature_dim();
  facts.classes = view_owner->num_classes();
  const core::DatasetView& view = *view_owner;

  // The order of core::train_plexus (run_threaded + train_rank_body).
  plexus::comm::World world(volume);
  core::Grid3D grid(world, opt.grid, *opt.machine);
  const core::GcnSpec spec = core::resolve_options(opt);
  std::barrier sync(volume);
  Clock::time_point epoch1_start{};
  int phase_span = -1;
  rec.epochs.resize(kEpochs);
  const auto* stream_view = dynamic_cast<const core::ShardedDatasetView*>(&view);
  plexus::io::BlockCache::Stats cache_before{};

  const auto rank_fn = [&](plexus::sim::RankContext& ctx) {
    const int rank = ctx.rank();
    ctx.comm.set_wire_precision(opt.wire);
    const int mb = tracer.open("core.model_build", setup_span, rank);
    core::DistGcn model(ctx, view, grid, spec);
    tracer.close(mb);
    sync.arrive_and_wait();
    if (rank == 0) {
      epoch1_start = Clock::now();
      tracer.close(setup_span);
    }
    const auto wg = grid.world_group();
    for (int e = 0; e < kEpochs; ++e) {
      if (rank == 0) {
        phase_span = tracer.open("epoch", rep_span);
        if (stream_view != nullptr) cache_before = stream_view->cache_stats();
      }
      sync.arrive_and_wait();  // aligns the epoch starts and publishes phase_span
      const auto t0 = Clock::now();
      const std::int64_t calls0 = comm_calls(ctx.comm);
      const int te = tracer.open("core.train_epoch", phase_span, rank);
      const core::EpochStats local = model.train_epoch(ctx, e);
      tracer.close(te, {{"comm_calls", static_cast<double>(comm_calls(ctx.comm) - calls0)},
                        {"sim_ms", local.epoch_seconds * 1e3}});
      const int sr = tracer.open("core.stats_reduce", phase_span, rank);
      const core::EpochStats s = core::reduce_epoch_stats(ctx.comm, wg, local);
      tracer.close(sr);
      if (rank == 0) {
        rec.epochs[static_cast<std::size_t>(e)] = {seconds_between(t0, Clock::now()), s};
      }
      if (traced) {
        const int fw = tracer.open("core.forward", phase_span, rank);
        (void)model.forward_logits(ctx);
        tracer.close(fw);
      }
      sync.arrive_and_wait();
      if (rank == 0) {
        std::vector<std::pair<std::string, double>> args{
            {"sim_ms", s.epoch_seconds * 1e3},
            {"wire_bytes", s.comm_wire_bytes},
            {"exposed_sim_ms", s.comm_seconds * 1e3},
            {"hidden_sim_ms", s.hidden_comm_seconds * 1e3},
            {"io_wait_s", s.io_exposed_seconds},
            {"io_bytes", s.io_bytes_streamed}};
        if (stream_view != nullptr) {
          const auto c = stream_view->cache_stats();
          const auto& c0 = cache_before;
          args.insert(args.end(),
                      {{"cache_hits", static_cast<double>(c.hits - c0.hits)},
                       {"cache_misses", static_cast<double>(c.misses - c0.misses)},
                       {"cache_evictions", static_cast<double>(c.evictions - c0.evictions)},
                       {"cache_bytes_loaded",
                        static_cast<double>(c.bytes_loaded - c0.bytes_loaded)},
                       {"cache_peak_bytes", static_cast<double>(c.peak_resident_bytes)}});
        }
        tracer.close(phase_span, std::move(args));
      }
    }
    if (traced) {
      if (rank == 0) phase_span = tracer.open("replay", rep_span);
      sync.arrive_and_wait();
      replay_kernels(tracer, phase_span, rank, view, grid, model);
      sync.arrive_and_wait();
      if (rank == 0) tracer.close(phase_span);
    }
  };
  plexus::sim::run_cluster(world, *opt.machine, rank_fn, /*enable_clock=*/true,
                           opt.intra_rank_threads, &plexus::comm::transport_for(opt.backend));
  rec.peak_rss_mb = peak_rss_mb();
  tracer.close(rep_span, {{"peak_rss_mb", rec.peak_rss_mb}});
  rec.setup_s = seconds_between(rep_start, epoch1_start);
  return rec;
}

/// The paper's performance model for this workload: predicted simulated
/// epoch (A100 machine), predicted host epoch (machine fitted to this host's
/// measured single-thread kernel rates) and predicted training bytes.
void emit_model_predictions(Json& j, const Workload& wl, const GraphFacts& f) {
  plexus::perf::WorkloadStats w;
  w.num_nodes = f.nodes;
  w.num_nonzeros = f.nnz;
  w.layer_dims = {f.feature_dim, 128, 128, f.classes};
  const auto& a100 = plexus::sim::Machine::perlmutter_a100();
  const auto host = plexus::perf::fit_host_machine(plexus::perf::measure_host_kernels());
  j.key("model").open('{');
  j.key("sim_epoch_ms").num(plexus::perf::predict_epoch(a100, w, wl.grid).total() * 1e3);
  j.key("host_epoch_s").num(plexus::perf::predict_epoch(host, w, wl.grid).total());
  const double train_bytes = plexus::perf::estimate_per_gpu_bytes(w, wl.grid) * wl.grid.size();
  j.key("train_mb").num(train_bytes / (1024.0 * 1024.0));
  j.close('}');
}

}  // namespace

int main(int argc, char** argv) {
  using plexus::util::ArgParser;
  ArgParser args("perfbench_harness", "Wall-clock benchmark of one products-proxy workload.");
  args.add_flag("workload", "name", "products-1rank | products-4rank | products-stream");
  args.add_flag("seed", "n", "graph seed", "1");
  args.add_flag("seconds", "s", "measurement time; repetitions continue until it is spent", "30");
  args.add_flag("trace", "0|1", "1 = untraced repetitions, then traced ones with kernel replay",
                "0");
  args.add_flag("work-dir", "dir", "scratch directory for shard files", ".");
  if (args.parse(argc, argv) != ArgParser::Status::Ok) {
    std::fprintf(stderr, "%s\n%s", args.error().c_str(), args.usage().c_str());
    return 2;
  }
  const Workload* wl = nullptr;
  for (const auto& w : kWorkloads) {
    if (args.value("workload") == w.name) wl = &w;
  }
  std::int64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  if (wl == nullptr || !args.value_int64("seed", seed) || seed < 0 ||
      !args.value_int("trace", trace) || trace < 0 || trace > 1) {
    std::fprintf(stderr, "perfbench_harness: bad --workload, --seed or --trace\n%s",
                 args.usage().c_str());
    return 2;
  }
  try {
    seconds = std::stod(args.value("seconds"));
  } catch (const std::exception&) {
    seconds = -1.0;
  }
  if (!(seconds > 0.0)) {
    std::fprintf(stderr, "perfbench_harness: bad --seconds\n");
    return 2;
  }
  const std::string work_dir = args.value("work-dir");
  fs::create_directories(work_dir);

  const auto start = Clock::now();
  Tracer tracer(start);
  GraphFacts facts;
  std::vector<RepRecord> reps;
  const auto elapsed = [&] { return seconds_between(start, Clock::now()); };
  // Repetitions fill the measurement time: another one starts only if it is
  // expected (from the last one's length) to end in time. Untraced ones get
  // all of it, or the first half when traced ones follow. An untraced run
  // makes at least two, so set-up time is a median; a traced run at least one
  // of each.
  const auto repeat = [&](bool traced, std::size_t min_reps, double until) {
    double last = 0.0;
    for (std::size_t n = 0; n < min_reps || elapsed() + last <= until; ++n) {
      const double t0 = elapsed();
      reps.push_back(run_repetition(*wl, static_cast<std::uint64_t>(seed), work_dir, traced,
                                    tracer, facts));
      last = elapsed() - t0;
    }
  };
  repeat(false, trace != 0 ? 1 : 2, trace != 0 ? seconds / 2.0 : seconds);
  if (trace != 0) repeat(true, 1, seconds);
  fs::remove_all(work_dir + "/shards");

  Json j;
  j.open('{');
  j.key("workload").str(wl->name);
  j.key("seed").num(static_cast<double>(seed));
  j.key("epochs_per_rep").num(kEpochs);
  j.key("host").open('{');
  j.key("nproc").num(plexus::util::hardware_threads());
  j.key("cpu_model").str(cpu_model());
  j.key("simd").str(plexus::simd::target_name(plexus::simd::active_target()));
  j.key("kernel_threads_per_rank").num(kernel_threads(*wl));
  j.key("ranks").num(wl->grid.size());
  j.key("build_type").str(PERFBENCH_BUILD_TYPE);
  j.close('}');
  j.key("graph").open('{');
  j.key("nodes").num(static_cast<double>(facts.nodes));
  j.key("edges").num(static_cast<double>(facts.edges));
  j.key("nnz").num(static_cast<double>(facts.nnz));
  j.close('}');
  j.key("reps").open('[');
  for (const auto& r : reps) {
    j.open('{');
    j.key("traced").boolean(r.traced);
    j.key("setup_s").num(r.setup_s);
    j.key("peak_rss_mb").num(r.peak_rss_mb);
    j.key("epochs").open('[');
    for (const auto& e : r.epochs) {
      j.open('{');
      j.key("wall_s").num(e.wall_s);
      j.key("loss").num(e.stats.loss);
      j.key("sim_ms").num(e.stats.epoch_seconds * 1e3);
      j.close('}');
    }
    j.close(']');
    j.close('}');
  }
  j.close(']');
  if (trace != 0) emit_model_predictions(j, *wl, facts);
  j.key("spans").open('[');
  for (const auto& s : tracer.spans()) {
    j.open('{');
    j.key("id").num(s.id);
    j.key("parent").num(s.parent);
    j.key("rank").num(s.rank);
    j.key("name").str(s.name);
    j.key("t0").num(s.t0);
    j.key("t1").num(s.t1);
    j.key("args").open('{');
    for (const auto& [k, v] : s.args) {
      j.key(k).num(v);
    }
    j.close('}');
    j.close('}');
  }
  j.close(']');
  j.close('}');
  std::printf("%s\n", j.text().c_str());
  return 0;
}
