// End-to-end smoke test: runs the examples/quickstart binary (path injected by
// CMake as PLEXUS_QUICKSTART_BIN), parses its per-epoch loss table, and
// asserts the loss trajectory is finite and decreasing. This guards the public
// train_plexus entry point — preprocessing, 8 rank threads, collectives, and
// the optimiser — not just library internals.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "comm/transport.hpp"

#ifndef PLEXUS_QUICKSTART_BIN
#error "PLEXUS_QUICKSTART_BIN must be defined by the build"
#endif

namespace {

struct QuickstartRun {
  int exit_code = -1;
  std::string output;
  std::vector<double> losses;  // per-epoch, in printed order
};

/// `env` is prepended to the command line, e.g. "PLEXUS_BACKEND=mpi ".
QuickstartRun run_quickstart(const std::string& env = "") {
  QuickstartRun run;
  // Merge stderr so a crash message shows up in the failure output.
  const std::string cmd = env + std::string(PLEXUS_QUICKSTART_BIN) + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
    run.output += buf;
    // Epoch rows look like: "    1  1.9876   0.312      12.345      6.789"
    unsigned long epoch = 0;
    double loss = 0.0;
    if (std::sscanf(buf, " %lu %lf", &epoch, &loss) == 2 && epoch >= 1) {
      run.losses.push_back(loss);
    }
  }
  run.exit_code = pclose(pipe);
  return run;
}

}  // namespace

TEST(QuickstartSmoke, TrainsWithFiniteDecreasingLoss) {
  const QuickstartRun run = run_quickstart();
  ASSERT_EQ(run.exit_code, 0) << "quickstart exited non-zero; output:\n" << run.output;
  ASSERT_GE(run.losses.size(), 5u) << "expected per-epoch loss rows; output:\n" << run.output;

  for (std::size_t i = 0; i < run.losses.size(); ++i) {
    EXPECT_TRUE(std::isfinite(run.losses[i])) << "epoch " << i + 1 << " loss not finite";
    EXPECT_GT(run.losses[i], 0.0) << "cross-entropy must be positive";
  }
  // Training must make real progress: final loss well below the initial one.
  EXPECT_LT(run.losses.back(), 0.8 * run.losses.front())
      << "loss did not decrease; output:\n"
      << run.output;
  // And the trajectory should be broadly monotone: no epoch may blow up past
  // the initial loss once training has started.
  for (std::size_t i = 1; i < run.losses.size(); ++i) {
    EXPECT_LT(run.losses[i], run.losses.front() * 1.05)
        << "loss spiked at epoch " << i + 1 << "; output:\n"
        << run.output;
  }
  // The run must also report a sane validation accuracy line.
  EXPECT_NE(run.output.find("validation accuracy"), std::string::npos);
}

// A backend this build cannot run is an unrecognized PLEXUS_BACKEND value:
// quickstart warns once and trains on sim (it used to abort on a rank thread
// with exit status 134).
TEST(QuickstartSmoke, UnavailableBackendFallsBackToSim) {
  if (plexus::comm::mpi_transport_available()) GTEST_SKIP() << "mpi is a valid backend here";
  const QuickstartRun fallback = run_quickstart("PLEXUS_BACKEND=mpi ");
  ASSERT_EQ(fallback.exit_code, 0) << "output:\n" << fallback.output;
  EXPECT_NE(fallback.output.find("PLEXUS_BACKEND=mpi not recognized (sim); using the default"),
            std::string::npos)
      << fallback.output;
  const QuickstartRun sim = run_quickstart("PLEXUS_BACKEND=sim ");
  ASSERT_EQ(sim.exit_code, 0) << "output:\n" << sim.output;
  EXPECT_EQ(fallback.losses, sim.losses);
}
