// Unit tests for util: deterministic RNG, permutations, statistics, tables.
#include <gtest/gtest.h>

#include <cmath>

#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace pu = plexus::util;

TEST(Rng, SplitMixDeterministic) {
  pu::SplitMix64 a(42);
  pu::SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SplitMixSkipMatchesDraws) {
  for (const std::uint64_t n : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{34},
                                std::uint64_t{1000000}}) {
    pu::SplitMix64 drawn(0x27a7);
    pu::SplitMix64 skipped(0x27a7);
    for (std::uint64_t i = 0; i < n; ++i) drawn.next_u64();
    skipped.skip(n);
    EXPECT_EQ(skipped.next_u64(), drawn.next_u64()) << "n=" << n;
    EXPECT_EQ(skipped.next_double(), drawn.next_double()) << "n=" << n;
  }
  // A state a few draws short of 2^64: the skip wraps exactly like the draws.
  pu::SplitMix64 drawn(~std::uint64_t{0} - 3);
  pu::SplitMix64 skipped(~std::uint64_t{0} - 3);
  for (int i = 0; i < 5; ++i) drawn.next_u64();
  skipped.skip(5);
  EXPECT_EQ(skipped.next_u64(), drawn.next_u64());
}

TEST(Rng, SplitMixSeedsDiffer) {
  pu::SplitMix64 a(1);
  pu::SplitMix64 b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, DoublesInUnitInterval) {
  pu::SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, CounterRngIsStateless) {
  pu::CounterRng rng(123);
  const double v1 = rng.uniform_at(55);
  (void)rng.uniform_at(99);  // interleaved access must not matter
  EXPECT_EQ(v1, rng.uniform_at(55));
}

TEST(Rng, CounterRngRangeMapping) {
  pu::CounterRng rng(9);
  for (std::uint64_t i = 0; i < 500; ++i) {
    const float v = rng.uniform_at(i, -2.0f, 3.0f);
    EXPECT_GE(v, -2.0f);
    EXPECT_LT(v, 3.0f);
  }
}

class PermutationSizes : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(PermutationSizes, RandomPermutationIsValid) {
  const auto n = GetParam();
  const auto perm = pu::random_permutation(n, 31337);
  EXPECT_TRUE(pu::is_permutation(perm));
  EXPECT_EQ(static_cast<std::int64_t>(perm.size()), n);
}

TEST_P(PermutationSizes, InverseComposesToIdentity) {
  const auto n = GetParam();
  const auto perm = pu::random_permutation(n, 99);
  const auto inv = pu::invert_permutation(perm);
  for (std::int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(inv[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])], i);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PermutationSizes, ::testing::Values(0, 1, 2, 7, 64, 1000));

TEST(Permutation, DifferentSeedsDiffer) {
  EXPECT_NE(pu::random_permutation(100, 1), pu::random_permutation(100, 2));
}

TEST(Permutation, IdentityIsIdentity) {
  const auto id = pu::identity_permutation(5);
  for (std::int64_t i = 0; i < 5; ++i) EXPECT_EQ(id[static_cast<std::size_t>(i)], i);
}

TEST(Stats, Summary) {
  const auto s = pu::summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, MaxOverMean) {
  EXPECT_NEAR(pu::max_over_mean({1.0, 1.0, 2.0}), 2.0 / (4.0 / 3.0), 1e-12);
}

TEST(Stats, RegressionRecoversCoefficients) {
  // y = 3 x0 - 2 x1 + 0.5, noiseless.
  std::vector<std::vector<double>> X;
  std::vector<double> y;
  pu::SplitMix64 rng(5);
  for (int i = 0; i < 50; ++i) {
    const double x0 = rng.next_double() * 10;
    const double x1 = rng.next_double() * 4 - 2;
    X.push_back({x0, x1});
    y.push_back(3.0 * x0 - 2.0 * x1 + 0.5);
  }
  const auto beta = pu::linear_regression(X, y, /*add_intercept=*/true);
  ASSERT_EQ(beta.size(), 3u);
  EXPECT_NEAR(beta[0], 0.5, 1e-8);
  EXPECT_NEAR(beta[1], 3.0, 1e-8);
  EXPECT_NEAR(beta[2], -2.0, 1e-8);
  const auto pred = pu::linear_predict(X, beta, true);
  EXPECT_NEAR(pu::r_squared(y, pred), 1.0, 1e-12);
  EXPECT_NEAR(pu::rmse(y, pred), 0.0, 1e-8);
}

TEST(Stats, RSquaredOfMeanPredictorIsZero) {
  const std::vector<double> y{1.0, 2.0, 3.0};
  const std::vector<double> pred{2.0, 2.0, 2.0};
  EXPECT_NEAR(pu::r_squared(y, pred), 0.0, 1e-12);
}

TEST(Stats, SolveLinearSystem) {
  // [2 1; 1 3] x = [5; 10] -> x = [1; 3]
  const auto x = pu::solve_linear_system({2, 1, 1, 3}, {5, 10}, 2);
  EXPECT_NEAR(x[0], 1.0, 1e-10);
  EXPECT_NEAR(x[1], 3.0, 1e-10);
}

TEST(Stats, PowerLawFit) {
  // y = 2.5 x^1.7
  std::vector<double> x;
  std::vector<double> y;
  for (double v = 1; v <= 64; v *= 2) {
    x.push_back(v);
    y.push_back(2.5 * std::pow(v, 1.7));
  }
  const auto [a, b] = pu::fit_power_law(x, y);
  EXPECT_NEAR(a, 2.5, 1e-6);
  EXPECT_NEAR(b, 1.7, 1e-9);
}

TEST(Table, FormatsCounts) {
  EXPECT_EQ(pu::Table::fmt_count(1313241), "1,313,241");
  EXPECT_EQ(pu::Table::fmt_count(0), "0");
  EXPECT_EQ(pu::Table::fmt_count(-4200), "-4,200");
}

TEST(Table, RendersAlignedRows) {
  pu::Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const auto s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Table, RejectsRaggedRow) {
  pu::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::runtime_error);
}

TEST(Parse, AcceptsWholeIntegers) {
  std::int64_t v64 = -1;
  EXPECT_TRUE(pu::parse_int64("0", v64));
  EXPECT_EQ(v64, 0);
  EXPECT_TRUE(pu::parse_int64("8000", v64));
  EXPECT_EQ(v64, 8000);
  EXPECT_TRUE(pu::parse_int64("-17", v64));
  EXPECT_EQ(v64, -17);
  EXPECT_TRUE(pu::parse_int64("9223372036854775807", v64));
  EXPECT_EQ(v64, INT64_MAX);
  int v = -1;
  EXPECT_TRUE(pu::parse_int("2147483647", v));
  EXPECT_EQ(v, INT32_MAX);
}

TEST(Parse, RejectsGarbageUnlikeAtoi) {
  // Everything std::atoi would silently turn into 0 (or truncate) must fail.
  std::int64_t v64 = 123;
  EXPECT_FALSE(pu::parse_int64("", v64));
  EXPECT_FALSE(pu::parse_int64("abc", v64));
  EXPECT_FALSE(pu::parse_int64("12x", v64));
  EXPECT_FALSE(pu::parse_int64("x12", v64));
  EXPECT_FALSE(pu::parse_int64(" 12", v64));
  EXPECT_FALSE(pu::parse_int64("1 2", v64));
  EXPECT_FALSE(pu::parse_int64("1.5", v64));
  EXPECT_FALSE(pu::parse_int64("0x10", v64));
  EXPECT_FALSE(pu::parse_int64("99999999999999999999", v64));  // overflow
  EXPECT_EQ(v64, 123);  // failures leave the output untouched
  int v = 77;
  EXPECT_FALSE(pu::parse_int("2147483648", v));  // fits int64, not int
  EXPECT_FALSE(pu::parse_int("-2147483649", v));
  EXPECT_EQ(v, 77);
}

// ---------------------------------------------------------------------------
// util::EnumNames — the one string<->enum registry (CLI flags, env vars,
// checkpoint headers). Property: to_string(from_string(name)) == name for
// every listed name, case-insensitively, across all three registered enums.

#include <cctype>
#include <cstdlib>

#include "comm/handle.hpp"
#include "comm/transport.hpp"
#include "core/layer.hpp"
#include "core/preprocess.hpp"
#include "util/enum_names.hpp"

namespace {

template <typename E>
void expect_enum_round_trip() {
  for (const auto& entry : pu::EnumNames<E>::table) {
    E parsed{};
    ASSERT_TRUE(pu::enum_from_string(entry.name, parsed)) << entry.name;
    EXPECT_EQ(parsed, entry.value);
    EXPECT_STREQ(pu::enum_name(parsed), entry.name);

    // Case-insensitive: SHOUTED names parse to the same value.
    std::string upper = entry.name;
    for (char& c : upper) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    E parsed_upper{};
    ASSERT_TRUE(pu::enum_from_string(upper, parsed_upper)) << upper;
    EXPECT_EQ(parsed_upper, entry.value);

    // The choices listing mentions every name.
    EXPECT_NE(pu::enum_choices<E>().find(entry.name), std::string::npos);
  }
}

}  // namespace

TEST(EnumNames, BackendRoundTrip) { expect_enum_round_trip<plexus::comm::Backend>(); }
TEST(EnumNames, PermutationSchemeRoundTrip) {
  expect_enum_round_trip<plexus::core::PermutationScheme>();
}
TEST(EnumNames, AggregationRoundTrip) { expect_enum_round_trip<plexus::core::Aggregation>(); }

TEST(EnumNames, RejectsUnknownAndFormatsError) {
  plexus::comm::Backend b = plexus::comm::Backend::Sim;
  EXPECT_FALSE(pu::enum_from_string("bogus", b));
  EXPECT_EQ(b, plexus::comm::Backend::Sim);  // untouched on failure
  const auto msg = pu::enum_error<plexus::comm::Backend>("bogus");
  EXPECT_NE(msg.find("unknown backend 'bogus'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("sim"), std::string::npos) << msg;
  // Caller-supplied availability listing overrides the static table.
  const auto custom = pu::enum_error<plexus::comm::Backend>("x", "sim | mpi");
  EXPECT_NE(custom.find("(expected sim | mpi)"), std::string::npos) << custom;
}

namespace {

/// Set an environment variable for one scope, restoring the previous state.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* prev = std::getenv(name);
    had_ = prev != nullptr;
    if (had_) prev_ = prev;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, prev_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_ = false;
  std::string prev_;
};

/// Occurrences of `needle` in `hay`.
std::size_t count_of(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (auto at = hay.find(needle); at != std::string::npos; at = hay.find(needle, at + 1)) ++n;
  return n;
}

}  // namespace

TEST(EnumNames, EnvEnumParsesCaseInsensitively) {
  const ScopedEnv env("PLEXUS_TEST_ENV_ENUM", "SPARSE");
  EXPECT_EQ(pu::env_enum<plexus::core::Aggregation>("PLEXUS_TEST_ENV_ENUM"),
            plexus::core::Aggregation::Sparse);
  const ScopedEnv empty("PLEXUS_TEST_ENV_ENUM_EMPTY", "");
  EXPECT_FALSE(pu::env_enum<plexus::core::Aggregation>("PLEXUS_TEST_ENV_ENUM_EMPTY"));
}

TEST(EnumNames, UnrecognizedEnvValueFallsBackWithOneWarning) {
  // A removed backend name is exactly such a value: it must fall back to the
  // default and say so once per process, never silently.
  plexus::comm::reset_default_backend();
  const ScopedEnv backend("PLEXUS_BACKEND", "local");
  const ScopedEnv agg("PLEXUS_AGG", "sprase");
  testing::internal::CaptureStderr();
  EXPECT_EQ(plexus::comm::default_backend(), plexus::comm::Backend::Sim);
  EXPECT_EQ(plexus::comm::default_backend(), plexus::comm::Backend::Sim);  // no second warning
  EXPECT_FALSE(plexus::core::env_aggregation().has_value());
  EXPECT_FALSE(plexus::core::env_aggregation().has_value());
  const std::string err = testing::internal::GetCapturedStderr();
  const std::string backend_warning = "PLEXUS_BACKEND=local not recognized (" +
                                      plexus::comm::backend_choices() + "); using the default";
  EXPECT_EQ(count_of(err, backend_warning), 1u) << err;
  EXPECT_EQ(count_of(err, "PLEXUS_AGG=sprase not recognized (dense | sparse | auto); "
                          "using the default"),
            1u)
      << err;
}

TEST(EnvInt, MalformedPlexusThreadsFallsBackWithOneWarning) {
  {
    const ScopedEnv threads("PLEXUS_THREADS", "3");
    EXPECT_EQ(pu::env_thread_override(), 3);
    EXPECT_EQ(pu::process_threads(), 3);
  }
  const ScopedEnv threads("PLEXUS_THREADS", "4x");
  testing::internal::CaptureStderr();
  EXPECT_EQ(pu::env_thread_override(), 0);
  EXPECT_EQ(pu::process_threads(), pu::hardware_threads());
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(count_of(err, "PLEXUS_THREADS=4x not recognized (an integer in [1, 4096]); "
                          "using the default"),
            1u)
      << err;
}

TEST(EnvInt, MalformedPlexusCommThreadsFallsBackWithOneWarning) {
  plexus::comm::set_comm_thread_budget(-1);  // follow the environment
  {
    const ScopedEnv comm("PLEXUS_COMM_THREADS", "12");
    EXPECT_EQ(plexus::comm::comm_thread_budget(), 8);  // valid, clamped
  }
  const ScopedEnv comm("PLEXUS_COMM_THREADS", "-1");
  testing::internal::CaptureStderr();
  EXPECT_EQ(plexus::comm::comm_thread_budget(), 1);
  EXPECT_EQ(plexus::comm::comm_thread_budget(), 1);  // no second warning
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(count_of(err, "PLEXUS_COMM_THREADS=-1 not recognized (an integer in [0, 4096]); "
                          "using the default"),
            1u)
      << err;
}

TEST(EnumNames, UnavailableBackendFallsBackToSimWithOneWarning) {
  if (plexus::comm::mpi_transport_available()) GTEST_SKIP() << "mpi is a valid backend here";
  plexus::comm::reset_default_backend();
  const ScopedEnv backend("PLEXUS_BACKEND", "mpi");
  testing::internal::CaptureStderr();
  EXPECT_EQ(plexus::comm::default_backend(), plexus::comm::Backend::Sim);
  EXPECT_EQ(plexus::comm::default_backend(), plexus::comm::Backend::Sim);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(count_of(err, "PLEXUS_BACKEND=mpi not recognized (sim); using the default"), 1u)
      << err;
}

// ---------------------------------------------------------------------------
// util::ArgParser — the shared --key=value CLI for the example binaries.

#include "util/arg_parser.hpp"

namespace {

// argv builder: gtest-friendly wrapper around the char** interface.
pu::ArgParser::Status parse_args(pu::ArgParser& args, std::vector<std::string> argv) {
  argv.insert(argv.begin(), "prog");
  std::vector<char*> ptrs;
  for (auto& s : argv) ptrs.push_back(s.data());
  return args.parse(static_cast<int>(ptrs.size()), ptrs.data());
}

pu::ArgParser train_like_parser() {
  pu::ArgParser args("prog", "test parser");
  args.add_flag("dataset", "name", "dataset to use", "ogbn-products");
  args.add_flag("epochs", "n", "epochs to train", "10");
  args.add_flag("checkpoint", "dir", "checkpoint directory");
  return args;
}

}  // namespace

TEST(ArgParser, DefaultsAndOverrides) {
  auto args = train_like_parser();
  ASSERT_EQ(parse_args(args, {"--epochs=5"}), pu::ArgParser::Status::Ok);
  EXPECT_TRUE(args.is_set("epochs"));
  EXPECT_FALSE(args.is_set("dataset"));
  EXPECT_EQ(args.value("dataset"), "ogbn-products");  // default reported
  int epochs = 0;
  EXPECT_TRUE(args.value_int("epochs", epochs));
  EXPECT_EQ(epochs, 5);
}

TEST(ArgParser, BareFlagStoresOne) {
  auto args = train_like_parser();
  ASSERT_EQ(parse_args(args, {"--checkpoint"}), pu::ArgParser::Status::Ok);
  EXPECT_TRUE(args.is_set("checkpoint"));
  EXPECT_EQ(args.value("checkpoint"), "1");
}

TEST(ArgParser, BareArgumentErrorsAndNamesIt) {
  auto args = train_like_parser();
  ASSERT_EQ(parse_args(args, {"--epochs=3", "test-graph"}), pu::ArgParser::Status::Error);
  EXPECT_NE(args.error().find("unexpected argument 'test-graph'"), std::string::npos)
      << args.error();
  EXPECT_NE(args.error().find("--key=value"), std::string::npos) << args.error();
  // A single dash is not a flag either.
  EXPECT_EQ(parse_args(args, {"-e"}), pu::ArgParser::Status::Error);
  EXPECT_NE(args.error().find("'-e'"), std::string::npos) << args.error();
}

TEST(ArgParser, HelpShortCircuits) {
  auto args = train_like_parser();
  EXPECT_EQ(parse_args(args, {"--help"}), pu::ArgParser::Status::Help);
  // Usage mentions every flag and its hint.
  const auto usage = args.usage();
  EXPECT_NE(usage.find("--dataset=name"), std::string::npos) << usage;
  EXPECT_NE(usage.find("--epochs=n"), std::string::npos) << usage;
}

TEST(ArgParser, UnknownFlagSuggestsNearestName) {
  auto args = train_like_parser();
  EXPECT_EQ(parse_args(args, {"--epocs=3"}), pu::ArgParser::Status::Error);
  EXPECT_NE(args.error().find("--epocs"), std::string::npos) << args.error();
  EXPECT_NE(args.error().find("--epochs"), std::string::npos) << args.error();  // did-you-mean
}

TEST(ArgParser, UnknownFlagWithoutNeighborStillErrors) {
  auto args = train_like_parser();
  EXPECT_EQ(parse_args(args, {"--definitely-not-a-flag=1"}), pu::ArgParser::Status::Error);
  EXPECT_NE(args.error().find("definitely-not-a-flag"), std::string::npos) << args.error();
}

TEST(ArgParser, RejectsNonNumericValues) {
  auto args = train_like_parser();
  ASSERT_EQ(parse_args(args, {"--epochs=ten"}), pu::ArgParser::Status::Ok);  // strings parse fine
  int epochs = 42;
  EXPECT_FALSE(args.value_int("epochs", epochs));
  EXPECT_EQ(epochs, 42);  // untouched on failure
  std::int64_t e64 = 42;
  EXPECT_FALSE(args.value_int64("epochs", e64));
}
