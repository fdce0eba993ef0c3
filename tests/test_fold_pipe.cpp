// Differential tests of the off-thread fold pipe: a piped ClassCollector,
// QuantileTrack and RunObserver against plain inline folds of the same
// sample sequence, compared byte for byte.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "metrics/class_stats.hpp"
#include "metrics/fold_pipe.hpp"
#include "obs/observer.hpp"

namespace pushpull {
namespace {

using metrics::ClassCollector;
using metrics::ClassStats;

constexpr std::size_t kBlock =
    metrics::FoldPipe<metrics::ServedSample, metrics::ServedFolder>::kBlock;

/// Byte-for-byte equality: every double must carry the same bits.
template <class T>
bool same_bytes(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// A deterministic stream of deliveries over `classes` classes; class
/// `never` (if < classes) is never served.
class Deliveries {
 public:
  Deliveries(std::uint32_t classes, std::uint32_t never)
      : classes_(classes), never_(never) {}

  struct Delivery {
    metrics::ClassId cls;
    double wait;
    bool via_push;
    double now;
  };

  Delivery next() {
    Delivery d{};
    do {
      d.cls = static_cast<metrics::ClassId>(draw() % classes_);
    } while (d.cls == never_);
    d.wait = static_cast<double>(draw() >> 11) * 0x1.0p-50;
    d.via_push = (draw() & 1U) != 0;
    now_ += static_cast<double>(draw() >> 11) * 0x1.0p-53;
    d.now = now_;
    return d;
  }

 private:
  std::uint64_t draw() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_;
  }

  std::uint32_t classes_;
  std::uint32_t never_;
  std::uint64_t state_ = 11;
  double now_ = 0.0;
};

/// The inline reference: exactly what ClassCollector::record_served folds,
/// on the calling thread, as it was before the pipe.
class InlineCollector {
 public:
  explicit InlineCollector(std::size_t n) : stats(n), last(n, -1.0) {}

  void record_served(metrics::ClassId cls, double wait, bool via_push,
                     double now) {
    ClassStats& s = stats[cls];
    ++s.served;
    (via_push ? s.served_push : s.served_pull) += 1;
    s.wait.add(wait);
    s.wait_p50.add(wait);
    s.wait_p95.add(wait);
    s.wait_p99.add(wait);
    if (now >= 0.0) {
      if (last[cls] >= 0.0) {
        const double gap = now - last[cls];
        s.gap.add(gap);
        s.gap_p99.add(gap);
      }
      last[cls] = now;
    }
  }

  std::vector<ClassStats> stats;
  std::vector<double> last;
};

void expect_same(const ClassCollector& piped, const InlineCollector& ref) {
  const std::vector<ClassStats>& all = piped.all();
  ASSERT_EQ(all.size(), ref.stats.size());
  for (std::size_t c = 0; c < all.size(); ++c) {
    EXPECT_TRUE(same_bytes(all[c], ref.stats[c])) << "class " << c;
    EXPECT_TRUE(same_bytes(piped.at(static_cast<metrics::ClassId>(c)),
                           ref.stats[c]))
        << "class " << c;
  }
  ClassStats ref_total;
  for (const auto& s : ref.stats) ref_total.merge_counters(s);
  EXPECT_TRUE(same_bytes(piped.aggregate(), ref_total));
}

/// Records `n` deliveries into both collectors (the first without a
/// timestamp, so the gap path also sees a timestamp-free delivery).
void record(ClassCollector& piped, InlineCollector& ref, Deliveries& gen,
            std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto d = gen.next();
    const double now = i == 0 ? -1.0 : d.now;
    piped.record_arrival(d.cls);
    ++ref.stats[d.cls].arrived;
    piped.record_served(d.cls, d.wait, d.via_push, now);
    ref.record_served(d.cls, d.wait, d.via_push, now);
  }
}

class FoldPipeCounts : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FoldPipeCounts, CollectorMatchesInlineFoldBitForBit) {
  const std::size_t n = GetParam();
  ClassCollector piped(4);
  InlineCollector ref(4);
  Deliveries gen(4, /*never=*/2);
  record(piped, ref, gen, n);
  expect_same(piped, ref);
  EXPECT_EQ(piped.at(2).served, 0U);
  EXPECT_EQ(piped.at(2).wait.count(), 0U);
}

TEST_P(FoldPipeCounts, QuantileTrackMatchesInlineFoldBitForBit) {
  const std::size_t n = GetParam();
  obs::QuantileTrack piped;
  obs::QuantileMoments ref;
  Deliveries gen(1, 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = gen.next().wait;
    piped.add(x);
    ref.add(x);
  }
  EXPECT_TRUE(same_bytes(piped.folded(), ref));
}

INSTANTIATE_TEST_SUITE_P(
    BlockEdges, FoldPipeCounts,
    ::testing::Values(std::size_t{0}, std::size_t{1}, kBlock - 1, kBlock,
                      kBlock + 1, 3 * kBlock, 37 * kBlock + 5));

TEST(FoldPipe, ReadsMidStreamThenRecordingResumes) {
  ClassCollector piped(3);
  InlineCollector ref(3);
  Deliveries gen(3, 3);
  record(piped, ref, gen, 5 * kBlock + 17);
  expect_same(piped, ref);  // joins the helper and folds the partial block
  record(piped, ref, gen, 2 * kBlock);  // continues inside the same block
  EXPECT_TRUE(same_bytes(piped.at(1), ref.stats[1]));
  record(piped, ref, gen, 9 * kBlock + 3);
  expect_same(piped, ref);
  // Each stretch past a read fills a block again and starts a helper.
  EXPECT_EQ(piped.fold_helpers_started(), 3U);
}

TEST(FoldPipe, ShortRunStartsNoThread) {
  ClassCollector piped(3);
  InlineCollector ref(3);
  Deliveries gen(3, 3);
  // A full block is handed off only when the next sample needs room.
  record(piped, ref, gen, kBlock);
  expect_same(piped, ref);
  EXPECT_EQ(piped.fold_helpers_started(), 0U);

  ClassCollector longer(3);
  InlineCollector longer_ref(3);
  record(longer, longer_ref, gen, kBlock + 1);
  EXPECT_EQ(longer.fold_helpers_started(), 1U);
  expect_same(longer, longer_ref);
}

TEST(FoldPipe, DestroyWithBlocksInFlightJoins) {
  for (int round = 0; round < 20; ++round) {
    auto piped = std::make_unique<ClassCollector>(3);
    Deliveries gen(3, 3);
    const std::size_t n = 4 * kBlock + static_cast<std::size_t>(round) * 97;
    for (std::size_t i = 0; i < n; ++i) {
      const auto d = gen.next();
      piped->record_served(d.cls, d.wait, d.via_push, d.now);
    }
    EXPECT_EQ(piped->fold_helpers_started(), 1U);
    piped.reset();  // never read: the destructor joins the helper
  }
}

TEST(FoldPipe, ObserverReportMatchesInlineFold) {
  obs::ObsConfig config;
  config.enabled = true;
  obs::RunObserver observer(config, 2);
  std::vector<obs::QuantileMoments> ref(3);
  Deliveries gen(2, 2);
  for (std::size_t i = 0; i < 6 * kBlock + 11; ++i) {
    const auto d = gen.next();
    const std::size_t len = static_cast<std::size_t>(d.wait * 64.0);
    observer.note_queue_len(len);
    ref[0].add(static_cast<double>(len));
    observer.note_response(d.cls, d.wait);
    ref[d.cls + 1].add(d.wait);
    observer.note_response(7, d.wait);  // unknown class: ignored
  }
  const obs::ObsReport report = observer.report();
  ASSERT_EQ(report.histograms.size(), 3U);
  for (std::size_t s = 0; s < 3; ++s) {
    const obs::QuantileSummary& h = report.histograms[s];
    const metrics::Welford& w = ref[s].moments;
    EXPECT_EQ(h.count, w.count()) << s;
    EXPECT_TRUE(same_bytes(h.mean, w.mean())) << s;
    EXPECT_TRUE(same_bytes(h.min, w.min())) << s;
    EXPECT_TRUE(same_bytes(h.max, w.max())) << s;
    EXPECT_TRUE(same_bytes(h.p50, ref[s].p50.value())) << s;
    EXPECT_TRUE(same_bytes(h.p90, ref[s].p90.value())) << s;
    EXPECT_TRUE(same_bytes(h.p99, ref[s].p99.value())) << s;
  }
}

}  // namespace
}  // namespace pushpull
