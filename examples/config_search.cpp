// Configuration search with the section-4 performance model: rank every 3D
// grid for a dataset and GPU budget, then functionally verify that the
// predicted-best configuration beats the predicted-worst on a proxy run.
//
//   ./build/examples/config_search --dataset=ogbn-products --gpus=64
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/trainer.hpp"
#include "graph/datasets.hpp"
#include "perfmodel/perfmodel.hpp"
#include "sim/machine.hpp"
#include "util/arg_parser.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using plexus::util::ArgParser;
  using plexus::util::Table;
  namespace pp = plexus::perf;

  ArgParser args("config_search",
                 "Rank every 3D grid for a dataset and GPU budget with the performance model.");
  args.add_flag("dataset", "name", "Table 4 dataset name", "ogbn-products");
  args.add_flag("gpus", "n", "GPU budget to enumerate grids for", "64");

  switch (args.parse(argc, argv)) {
    case ArgParser::Status::Help: std::fputs(args.usage().c_str(), stdout); return 0;
    case ArgParser::Status::Error:
      std::fprintf(stderr, "config_search: %s\n%s", args.error().c_str(), args.usage().c_str());
      return 1;
    case ArgParser::Status::Ok: break;
  }
  const std::string& dataset = args.value("dataset");
  int gpus = 0;
  if (!args.value_int("gpus", gpus) || gpus < 1) {
    std::fprintf(stderr, "config_search: bad --gpus '%s'\n%s", args.value("gpus").c_str(),
                 args.usage().c_str());
    return 1;
  }

  const auto& info = plexus::graph::dataset_info(dataset);
  const auto& machine = plexus::sim::Machine::perlmutter_a100();
  const auto w = pp::WorkloadStats::from_dataset(info);

  std::printf("ranking %zu configurations of %d GPUs for %s (N=%lld, NNZ=%lld)\n\n",
              pp::enumerate_grids(gpus).size(), gpus, dataset.c_str(),
              static_cast<long long>(w.num_nodes), static_cast<long long>(w.num_nonzeros));

  const auto ranked = pp::rank_configurations(machine, w, gpus);
  Table t({"Rank", "Config", "Dim", "SpMM (ms)", "GEMM (ms)", "Comm (ms)", "Total (ms)"});
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    if (i >= 5 && i + 3 < ranked.size()) continue;  // head and tail only
    const auto& r = ranked[i];
    t.add_row({std::to_string(i + 1), pp::grid_to_string(r.grid),
               std::to_string(pp::grid_dimensionality(r.grid)) + "D",
               Table::fmt(r.prediction.spmm_seconds * 1e3, 2),
               Table::fmt(r.prediction.gemm_seconds * 1e3, 2),
               Table::fmt(r.prediction.comm_seconds * 1e3, 2),
               Table::fmt(r.prediction.total() * 1e3, 2)});
  }
  t.print();

  // Functional verification on a proxy: best vs worst predicted config.
  if (gpus <= 64) {
    const auto g = plexus::graph::make_proxy(info, 4000, 7);
    auto run = [&](const plexus::sim::GridShape& shape) {
      plexus::core::TrainOptions opt;
      opt.grid = shape;
      opt.machine = &machine;
      opt.model.hidden_dims = {64, 64};
      opt.epochs = 3;
      return plexus::core::train_plexus(g, opt).avg_epoch_seconds(1);
    };
    const double best = run(ranked.front().grid);
    const double worst = run(ranked.back().grid);
    std::printf("\nfunctional proxy check: predicted-best %s -> %.3f ms/epoch, "
                "predicted-worst %s -> %.3f ms/epoch (%.1fx apart)\n",
                pp::grid_to_string(ranked.front().grid).c_str(), best * 1e3,
                pp::grid_to_string(ranked.back().grid).c_str(), worst * 1e3, worst / best);
  }
  return 0;
}
