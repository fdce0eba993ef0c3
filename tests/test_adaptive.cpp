// Tests for the adaptive hybrid server: conservation, migration across
// re-partitions, cutoff tracking under drift, and superiority over a stale
// static configuration on non-stationary workloads; the engine golden and the
// identity with HybridServer when no re-optimization falls inside the run.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "core/adaptive_server.hpp"
#include "core/hybrid_server.hpp"
#include "exp/scenario.hpp"
#include "engine_golden.hpp"
#include "workload/drifting_generator.hpp"

namespace pushpull::core {
namespace {

struct DriftWorld {
  catalog::Catalog catalog;
  workload::ClientPopulation population;
  workload::Trace trace;
};

DriftWorld make_drift_world(double epoch, std::size_t shift,
                            std::size_t requests, std::uint64_t seed = 99) {
  catalog::Catalog cat(100, 1.0, catalog::LengthModel::paper_default(), 7);
  auto pop = workload::ClientPopulation::paper_default();
  workload::DriftingGenerator gen(cat, pop, 5.0, epoch, shift, seed);
  workload::Trace trace = workload::Trace::record(gen, requests);
  return DriftWorld{std::move(cat), std::move(pop), std::move(trace)};
}

AdaptiveConfig default_adaptive() {
  AdaptiveConfig config;
  config.initial_cutoff = 30;
  config.alpha = 0.5;
  config.reoptimize_interval = 300.0;
  config.estimator_half_life = 400.0;
  config.scan_step = 10;
  return config;
}

TEST(AdaptiveServer, RejectsBadConfig) {
  const auto world = make_drift_world(1000.0, 10, 10);
  AdaptiveConfig config = default_adaptive();
  config.initial_cutoff = 1000;
  EXPECT_THROW(AdaptiveHybridServer(world.catalog, world.population, config),
               std::invalid_argument);
  config = default_adaptive();
  config.reoptimize_interval = 0.0;
  EXPECT_THROW(AdaptiveHybridServer(world.catalog, world.population, config),
               std::invalid_argument);
  config = default_adaptive();
  config.scan_step = 0;
  EXPECT_THROW(AdaptiveHybridServer(world.catalog, world.population, config),
               std::invalid_argument);
}

TEST(AdaptiveServer, ConservesRequests) {
  const auto world = make_drift_world(500.0, 20, 15000);
  AdaptiveHybridServer server(world.catalog, world.population,
                              default_adaptive());
  const AdaptiveResult r = server.run(world.trace);
  const auto overall = r.overall();
  EXPECT_EQ(overall.arrived, world.trace.size());
  EXPECT_EQ(overall.served, overall.arrived);
}

TEST(AdaptiveServer, ReoptimizesPeriodically) {
  const auto world = make_drift_world(500.0, 20, 15000);
  AdaptiveHybridServer server(world.catalog, world.population,
                              default_adaptive());
  const AdaptiveResult r = server.run(world.trace);
  EXPECT_GT(r.reoptimizations, 3u);
  // History: initial entry plus one per re-optimization.
  EXPECT_EQ(r.cutoff_history.size(), r.reoptimizations + 1);
  EXPECT_DOUBLE_EQ(r.cutoff_history.front().first, 0.0);
  EXPECT_EQ(r.cutoff_history.front().second, 30u);
}

TEST(AdaptiveServer, DeterministicAcrossRuns) {
  const auto world = make_drift_world(500.0, 20, 8000);
  AdaptiveHybridServer server(world.catalog, world.population,
                              default_adaptive());
  const AdaptiveResult a = server.run(world.trace);
  const AdaptiveResult b = server.run(world.trace);
  EXPECT_DOUBLE_EQ(a.overall().wait.mean(), b.overall().wait.mean());
  EXPECT_EQ(a.reoptimizations, b.reoptimizations);
  EXPECT_EQ(a.cutoff_history, b.cutoff_history);
}

TEST(AdaptiveServer, WorksFromPurePullStart) {
  const auto world = make_drift_world(500.0, 20, 8000);
  AdaptiveConfig config = default_adaptive();
  config.initial_cutoff = 0;
  AdaptiveHybridServer server(world.catalog, world.population, config);
  const AdaptiveResult r = server.run(world.trace);
  EXPECT_EQ(r.overall().served, world.trace.size());
}

TEST(AdaptiveServer, HandlesEmptyTrace) {
  const auto world = make_drift_world(500.0, 20, 10);
  AdaptiveHybridServer server(world.catalog, world.population,
                              default_adaptive());
  const AdaptiveResult r = server.run(workload::Trace{});
  EXPECT_EQ(r.overall().arrived, 0u);
}

TEST(AdaptiveServer, BeatsStaleStaticCutoffUnderDrift) {
  // Drift rotates the hot set by a third of the catalog every 400 units;
  // a static rank-prefix push set goes stale after the first epoch, while
  // the adaptive server re-learns the hot set.
  const auto world = make_drift_world(400.0, 33, 30000);

  AdaptiveConfig adaptive = default_adaptive();
  adaptive.reoptimize_interval = 100.0;
  adaptive.estimator_half_life = 150.0;
  AdaptiveHybridServer dynamic(world.catalog, world.population, adaptive);
  const AdaptiveResult ra = dynamic.run(world.trace);

  HybridConfig static_config;
  static_config.cutoff = 30;
  static_config.alpha = 0.5;
  HybridServer fixed(world.catalog, world.population, static_config);
  const SimResult rs = fixed.run(world.trace);

  EXPECT_LT(ra.overall().wait.mean(), rs.overall().wait.mean());
}

TEST(AdaptiveServer, MatchesStationaryWorkloadReasonably) {
  // On a stationary workload the adaptive server should converge to a
  // sensible cutoff and not be dramatically worse than a tuned static one.
  exp::Scenario scenario;
  scenario.theta = 1.0;
  scenario.num_requests = 20000;
  const auto built = scenario.build();

  AdaptiveConfig adaptive = default_adaptive();
  AdaptiveHybridServer dynamic(built.catalog, built.population, adaptive);
  const AdaptiveResult ra = dynamic.run(built.trace);

  HybridConfig static_config;
  static_config.cutoff = 30;
  static_config.alpha = 0.5;
  const SimResult rs = exp::run_hybrid(built, static_config);

  EXPECT_LT(ra.overall().wait.mean(), rs.overall().wait.mean() * 1.5);
  EXPECT_EQ(ra.overall().served, built.trace.size());
}

TEST(AdaptiveServer, MigratesPendingRequestsAcrossRepartitions) {
  // With aggressive re-optimization every 50 units and strong drift, items
  // cross the push/pull boundary constantly while requests are pending; all
  // requests must still be delivered exactly once.
  const auto world = make_drift_world(100.0, 50, 12000);
  AdaptiveConfig config = default_adaptive();
  config.reoptimize_interval = 50.0;
  config.estimator_half_life = 80.0;
  config.scan_step = 5;
  AdaptiveHybridServer server(world.catalog, world.population, config);
  const AdaptiveResult r = server.run(world.trace);
  EXPECT_EQ(r.overall().served, world.trace.size());
  EXPECT_GT(r.reoptimizations, 10u);
}

// A zero shift makes the drifting generator stationary.
struct Drift {
  const char* name;
  double epoch;
  std::size_t shift;
};
constexpr Drift kStationary{"none", 400.0, 0};

// One adaptive run per line, every field in hexfloat, over drift {none,
// every 400, every 100} x initial cutoff {0, 30} x alpha {0, 0.5, 1} x
// re-optimization interval {50, 300}.
std::string render_adaptive_matrix() {
  std::ostringstream out;
  for (const Drift& drift :
       {kStationary, Drift{"400", 400.0, 33}, Drift{"100", 100.0, 33}}) {
    const auto world = make_drift_world(drift.epoch, drift.shift, 10000);
    for (const std::size_t cutoff : {std::size_t{0}, std::size_t{30}}) {
      for (const double alpha : {0.0, 0.5, 1.0}) {
        for (const double interval : {50.0, 300.0}) {
          AdaptiveConfig config = default_adaptive();
          config.initial_cutoff = cutoff;
          config.alpha = alpha;
          config.reoptimize_interval = interval;
          AdaptiveHybridServer server(world.catalog, world.population,
                                      config);
          const AdaptiveResult r = server.run(world.trace);
          out << "drift=" << drift.name << " cutoff=" << cutoff
              << " alpha=" << alpha << " interval=" << interval
              << " end=" << testing_util::hex(r.end_time)
              << " push_tx=" << r.push_transmissions
              << " pull_tx=" << r.pull_transmissions
              << " reopt=" << r.reoptimizations << " history=";
          for (const auto& [t, k] : r.cutoff_history) {
            out << testing_util::hex(t) << ":" << k << ",";
          }
          out << "\n" << testing_util::render_per_class(r.per_class);
        }
      }
    }
  }
  return out.str();
}

TEST(AdaptiveServer, MatrixMatchesTheEngineGolden) {
  testing_util::expect_matches_engine_golden(render_adaptive_matrix(),
                                             "adaptive.txt");
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_same_quantile(const metrics::P2Quantile& a,
                          const metrics::P2Quantile& b) {
  ASSERT_EQ(a.count(), b.count());
  if (a.count() > 0) {
    EXPECT_TRUE(same_bits(a.value(), b.value()));
  }
}

TEST(AdaptiveServer, WithoutReoptimizationEqualsTheStaticServer) {
  // A re-optimization timer that never fires inside the run leaves the
  // identity rank order and the initial cutoff in force, so the adaptive
  // server must be HybridServer at that cutoff, bit for bit.
  for (const Drift& drift : {kStationary, Drift{"400", 400.0, 33}}) {
    const auto world = make_drift_world(drift.epoch, drift.shift, 20000);
    for (const std::size_t cutoff :
         {std::size_t{0}, std::size_t{30}, std::size_t{100}}) {
      for (const double alpha : {0.0, 0.5, 1.0}) {
        SCOPED_TRACE(::testing::Message() << "drift=" << drift.name
                                          << " cutoff=" << cutoff
                                          << " alpha=" << alpha);
        AdaptiveConfig adaptive = default_adaptive();
        adaptive.initial_cutoff = cutoff;
        adaptive.alpha = alpha;
        adaptive.reoptimize_interval = 1e12;
        AdaptiveHybridServer dynamic(world.catalog, world.population,
                                     adaptive);
        const AdaptiveResult ra = dynamic.run(world.trace);

        HybridConfig fixed_config;
        fixed_config.cutoff = cutoff;
        fixed_config.alpha = alpha;
        HybridServer fixed(world.catalog, world.population, fixed_config);
        const SimResult rs = fixed.run(world.trace);

        EXPECT_EQ(ra.reoptimizations, 0u);
        EXPECT_TRUE(same_bits(ra.end_time, rs.end_time));
        EXPECT_EQ(ra.push_transmissions, rs.push_transmissions);
        EXPECT_EQ(ra.pull_transmissions, rs.pull_transmissions);
        ASSERT_EQ(ra.per_class.size(), rs.per_class.size());
        for (std::size_t c = 0; c < ra.per_class.size(); ++c) {
          const metrics::ClassStats& a = ra.per_class[c];
          const metrics::ClassStats& s = rs.per_class[c];
          EXPECT_EQ(a.arrived, s.arrived);
          EXPECT_EQ(a.served_push, s.served_push);
          EXPECT_EQ(a.served_pull, s.served_pull);
          ASSERT_EQ(a.wait.count(), s.wait.count());
          EXPECT_TRUE(same_bits(a.wait.mean(), s.wait.mean()));
          EXPECT_TRUE(same_bits(a.wait.variance(), s.wait.variance()));
          expect_same_quantile(a.wait_p50, s.wait_p50);
          expect_same_quantile(a.wait_p95, s.wait_p95);
          expect_same_quantile(a.wait_p99, s.wait_p99);
          EXPECT_TRUE(same_bits(a.gap.mean(), s.gap.mean()));
          expect_same_quantile(a.gap_p99, s.gap_p99);
        }
      }
    }
  }
}

TEST(AdaptiveServer, PremiumClassStillFavored) {
  const auto world = make_drift_world(400.0, 33, 20000);
  AdaptiveConfig config = default_adaptive();
  config.alpha = 0.0;
  AdaptiveHybridServer server(world.catalog, world.population, config);
  const AdaptiveResult r = server.run(world.trace);
  EXPECT_LE(r.mean_wait(0), r.mean_wait(2) * 1.10);
}

}  // namespace
}  // namespace pushpull::core
