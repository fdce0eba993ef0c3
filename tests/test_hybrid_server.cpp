// Unit and behavioral tests for the hybrid server: conservation,
// determinism, push/pull mechanics, blocking, warm-up, edge cutoffs and
// the core's rank-order push set.
#include <gtest/gtest.h>

#include <numeric>
#include <span>
#include <vector>

#include "catalog/catalog.hpp"
#include "catalog/length_model.hpp"
#include "core/hybrid_server.hpp"
#include "core/server_core.hpp"
#include "exp/scenario.hpp"

namespace pushpull::core {
namespace {

exp::Scenario small_scenario() {
  exp::Scenario s;
  s.num_items = 50;
  s.num_requests = 5000;
  return s;
}

TEST(HybridServer, ConservationOfRequests) {
  const auto built = small_scenario().build();
  HybridConfig config;
  config.cutoff = 20;
  const SimResult result = exp::run_hybrid(built, config);
  const auto overall = result.overall();
  EXPECT_EQ(overall.arrived, built.trace.size());
  EXPECT_EQ(overall.served + overall.blocked, overall.arrived);
}

TEST(HybridServer, DeterministicAcrossRuns) {
  const auto built = small_scenario().build();
  HybridConfig config;
  config.cutoff = 15;
  const SimResult a = exp::run_hybrid(built, config);
  const SimResult b = exp::run_hybrid(built, config);
  EXPECT_DOUBLE_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.push_transmissions, b.push_transmissions);
  EXPECT_EQ(a.pull_transmissions, b.pull_transmissions);
  for (std::size_t c = 0; c < a.per_class.size(); ++c) {
    EXPECT_DOUBLE_EQ(a.per_class[c].wait.mean(), b.per_class[c].wait.mean());
  }
}

TEST(HybridServer, ServerObjectIsReusable) {
  const auto built = small_scenario().build();
  HybridConfig config;
  config.cutoff = 15;
  HybridServer server(built.catalog, built.population, config);
  const SimResult a = server.run(built.trace);
  const SimResult b = server.run(built.trace);
  EXPECT_DOUBLE_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.overall().served, b.overall().served);
}

TEST(HybridServer, PurePushServesEverythingViaBroadcast) {
  const auto built = small_scenario().build();
  HybridConfig config;
  config.cutoff = built.catalog.size();
  const SimResult result = exp::run_hybrid(built, config);
  const auto overall = result.overall();
  EXPECT_EQ(overall.served, overall.arrived);
  EXPECT_EQ(overall.served_pull, 0u);
  EXPECT_EQ(result.pull_transmissions, 0u);
  // Flat broadcast delay is bounded by one full cycle plus the longest item.
  const double cycle = built.catalog.push_cycle_length(config.cutoff);
  EXPECT_LE(overall.wait.max(), cycle + 5.0);
  EXPECT_GT(overall.wait.mean(), 0.0);
}

TEST(HybridServer, PurePushDelayIsAboutHalfCycle) {
  const auto built = small_scenario().build();
  HybridConfig config;
  config.cutoff = built.catalog.size();
  const SimResult result = exp::run_hybrid(built, config);
  const double cycle = built.catalog.push_cycle_length(config.cutoff);
  const double mean = result.overall().wait.mean();
  EXPECT_GT(mean, 0.3 * cycle);
  EXPECT_LT(mean, 0.8 * cycle);
}

TEST(HybridServer, PurePullServesEverythingOnDemand) {
  const auto built = small_scenario().build();
  HybridConfig config;
  config.cutoff = 0;
  const SimResult result = exp::run_hybrid(built, config);
  const auto overall = result.overall();
  EXPECT_EQ(overall.served, overall.arrived);
  EXPECT_EQ(overall.served_push, 0u);
  EXPECT_EQ(result.push_transmissions, 0u);
  EXPECT_GT(result.pull_transmissions, 0u);
}

TEST(HybridServer, PullNeverOutpacesPushByMoreThanOne) {
  // Strict alternation: between two pull transmissions there is at least
  // one push (for hybrid cutoffs).
  const auto built = small_scenario().build();
  HybridConfig config;
  config.cutoff = 10;
  const SimResult result = exp::run_hybrid(built, config);
  EXPECT_LE(result.pull_transmissions, result.push_transmissions + 1);
}

TEST(HybridServer, UnconstrainedChannelNeverBlocks) {
  const auto built = small_scenario().build();
  HybridConfig config;
  config.cutoff = 20;
  config.total_bandwidth = 0.0;
  const SimResult result = exp::run_hybrid(built, config);
  EXPECT_EQ(result.overall().blocked, 0u);
  EXPECT_EQ(result.blocked_transmissions, 0u);
}

TEST(HybridServer, TinyBandwidthBlocksPulls) {
  const auto built = small_scenario().build();
  HybridConfig config;
  config.cutoff = 10;
  config.total_bandwidth = 0.3;  // pools so small most Poisson(1) draws fail
  config.mean_bandwidth_demand = 1.0;
  const SimResult result = exp::run_hybrid(built, config);
  EXPECT_GT(result.overall().blocked, 0u);
  EXPECT_GT(result.blocked_transmissions, 0u);
  // Conservation still holds with blocking.
  const auto overall = result.overall();
  EXPECT_EQ(overall.served + overall.blocked, overall.arrived);
}

TEST(HybridServer, GenerousPremiumBandwidthProtectsClassA) {
  const auto built = small_scenario().build();
  HybridConfig config;
  config.cutoff = 10;
  config.total_bandwidth = 6.0;
  config.mean_bandwidth_demand = 2.0;
  // Class A gets 70% of the channel, B and C split the rest.
  config.bandwidth_fractions = {0.7, 0.2, 0.1};
  const SimResult result = exp::run_hybrid(built, config);
  EXPECT_LT(result.per_class[0].blocking_ratio(),
            result.per_class[2].blocking_ratio());
}

TEST(HybridServer, WarmupExcludesEarlyRequests) {
  const auto built = small_scenario().build();
  HybridConfig config;
  config.cutoff = 20;
  config.warmup_fraction = 0.3;
  const SimResult result = exp::run_hybrid(built, config);
  const auto overall = result.overall();
  EXPECT_LT(overall.arrived, built.trace.size());
  EXPECT_GT(overall.arrived, built.trace.size() / 2);
  EXPECT_EQ(overall.served + overall.blocked, overall.arrived);
}

TEST(HybridServer, AllRequestsForPushItemsServedByPush) {
  const auto built = small_scenario().build();
  HybridConfig config;
  config.cutoff = 25;
  const SimResult result = exp::run_hybrid(built, config);
  std::uint64_t push_requests = 0;
  for (const auto& r : built.trace.requests()) {
    if (r.item < config.cutoff) ++push_requests;
  }
  EXPECT_EQ(result.overall().served_push, push_requests);
}

TEST(HybridServer, AlphaZeroFavorsPremiumClass) {
  exp::Scenario s = small_scenario();
  s.num_requests = 20000;
  const auto built = s.build();
  HybridConfig config;
  config.cutoff = 10;
  config.alpha = 0.0;  // pure priority selection
  const SimResult result = exp::run_hybrid(built, config);
  EXPECT_LE(result.mean_wait(0), result.mean_wait(2));
}

TEST(HybridServer, MeanPullQueueLenPositiveWhenLoaded) {
  const auto built = small_scenario().build();
  HybridConfig config;
  config.cutoff = 10;
  const SimResult result = exp::run_hybrid(built, config);
  EXPECT_GT(result.mean_pull_queue_len, 0.0);
}

TEST(HybridServer, EmptyTraceFinishesImmediately) {
  const auto built = small_scenario().build();
  HybridConfig config;
  config.cutoff = 10;
  HybridServer server(built.catalog, built.population, config);
  const SimResult result = server.run(workload::Trace{});
  EXPECT_EQ(result.overall().arrived, 0u);
  EXPECT_EQ(result.overall().served, 0u);
}

TEST(HybridServer, RejectsBadConfig) {
  const auto built = small_scenario().build();
  HybridConfig config;
  config.cutoff = built.catalog.size() + 1;
  EXPECT_THROW(HybridServer(built.catalog, built.population, config),
               std::invalid_argument);

  config.cutoff = 10;
  config.warmup_fraction = 1.0;
  EXPECT_THROW(HybridServer(built.catalog, built.population, config),
               std::invalid_argument);

  config.warmup_fraction = 0.0;
  config.total_bandwidth = 10.0;
  config.bandwidth_fractions = {0.5, 0.5};  // population has 3 classes
  EXPECT_THROW(HybridServer(built.catalog, built.population, config),
               std::invalid_argument);
}

TEST(HybridServer, WaitsAreNonNegativeAndFinite) {
  const auto built = small_scenario().build();
  HybridConfig config;
  config.cutoff = 20;
  const SimResult result = exp::run_hybrid(built, config);
  for (const auto& cls : result.per_class) {
    EXPECT_GE(cls.wait.min(), 0.0);
    EXPECT_TRUE(std::isfinite(cls.wait.max()));
  }
}

TEST(HybridServer, PullPolicySwapChangesSchedule) {
  const auto built = small_scenario().build();
  HybridConfig a;
  a.cutoff = 10;
  a.pull_policy = sched::PullPolicyKind::kFcfs;
  HybridConfig b = a;
  b.pull_policy = sched::PullPolicyKind::kMrf;
  const SimResult ra = exp::run_hybrid(built, a);
  const SimResult rb = exp::run_hybrid(built, b);
  // Same workload, different service order ⇒ different mean waits.
  EXPECT_NE(ra.overall().wait.mean(), rb.overall().wait.mean());
  // But identical conservation.
  EXPECT_EQ(ra.overall().served, rb.overall().served);
}

TEST(ServerCore, RepartitionPushesTheFirstItemsOfTheNewOrder) {
  // Reversing the rank order at t = 0 moves the push set from items
  // [0, 10) to items [40, 50): exactly their requests ride the broadcast.
  const auto built = small_scenario().build();
  const workload::Trace& trace = built.trace;
  HybridConfig config;
  config.cutoff = 10;
  ServerCore core(built.catalog, built.population, config);
  core.begin(trace.size(), trace.span(), nullptr, nullptr,
             /*track_queue_depth=*/false);
  core.sim().attach_arrivals(
      trace.size(), [&trace](std::size_t i) { return trace[i].arrival; },
      [&core, &trace](std::size_t i) { core.on_arrival(trace[i]); });
  core.start();
  std::vector<catalog::ItemId> reversed(built.catalog.size());
  std::iota(reversed.rbegin(), reversed.rend(), catalog::ItemId{0});
  core.repartition(reversed, 10);
  core.run();

  std::uint64_t expected_push = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].item >= 40) ++expected_push;
  }
  const metrics::ClassStats overall = core.collector().aggregate();
  EXPECT_EQ(overall.served, trace.size());
  EXPECT_EQ(overall.served_push, expected_push);

  EXPECT_THROW(core.repartition(std::span(reversed).first(49), 10),
               std::invalid_argument);
  EXPECT_THROW(core.repartition(reversed, 51), std::invalid_argument);
}

}  // namespace
}  // namespace pushpull::core
