// Round-trip suite for the binary trace ring (DESIGN §13): the compact
// encoding must decode to exactly the TraceEvent stream the old struct
// ring stored — same seqs, same bit patterns — and the deferred JSONL
// render must stay byte-identical to the committed goldens across worker
// counts and a kill + --resume.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "case_dir.hpp"
#include "obs/category.hpp"
#include "obs/trace.hpp"

namespace pushpull {
namespace {

using obs::Category;
using obs::TraceEvent;
using obs::TraceSink;

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// Field-for-field equality, doubles by bit pattern (so -0.0 != +0.0 and
// NaN payloads count).
void expect_event_eq(const TraceEvent& got, const TraceEvent& want) {
  EXPECT_EQ(bits_of(got.time), bits_of(want.time));
  EXPECT_EQ(got.seq, want.seq);
  EXPECT_EQ(got.category, want.category);
  EXPECT_EQ(got.name, want.name);  // same literal pointer, not strcmp
  EXPECT_EQ(got.a, want.a);
  EXPECT_EQ(got.b, want.b);
  EXPECT_EQ(bits_of(got.v), bits_of(want.v));
}

TEST(BinaryRing, RoundTripsFieldBitPatterns) {
  TraceSink sink(64, obs::kAllCategories);
  const double neg_zero = -0.0;
  const double quiet_nan = std::numeric_limits<double>::quiet_NaN();
  const double denorm = std::numeric_limits<double>::denorm_min();
  // Varint boundaries for a/b, every v encoding case, one name under two
  // categories, duplicate names (interning must not conflate any of them).
  const TraceEvent cases[] = {
      {0.0, 0, Category::kPush, "tx_start", 0, 0, 0.0},
      {1.5, 1, Category::kPush, "tx_start", 127, 128, 1.0},
      {1.5, 2, Category::kPull, "tx_start", 16383, 16384, neg_zero},
      {2.25, 3, Category::kQueue, "enter",
       std::numeric_limits<std::uint64_t>::max(), 1, quiet_nan},
      {-3.5, 4, Category::kFault, "corrupt", 7, 9, denorm},
      {1e300, 5, Category::kDrain, "drain", 42, 0, -1e-300},
  };
  for (const TraceEvent& ev : cases) {
    sink.record(ev.time, ev.category, ev.name, ev.a, ev.b, ev.v);
  }
  const std::vector<TraceEvent> got = sink.snapshot();
  // snapshot sorts by (time, seq): -3.5 first, 1e300 last.
  ASSERT_EQ(got.size(), 6u);
  expect_event_eq(got[0], cases[4]);
  expect_event_eq(got[1], cases[0]);
  expect_event_eq(got[2], cases[1]);
  expect_event_eq(got[3], cases[2]);
  expect_event_eq(got[4], cases[3]);
  expect_event_eq(got[5], cases[5]);
}

TEST(BinaryRing, DropOldestKeepsSeqAndPayloadsExact) {
  constexpr std::size_t kCap = 4;
  TraceSink sink(kCap, obs::kAllCategories);
  std::deque<TraceEvent> reference;
  for (std::uint64_t i = 0; i < 100; ++i) {
    const TraceEvent ev{static_cast<double>(i), i, Category::kQueue, "enter",
                        i * i, i % 3,
                        i % 2 == 0 ? 0.0 : 0.5 * static_cast<double>(i)};
    sink.record(ev.time, ev.category, ev.name, ev.a, ev.b, ev.v);
    reference.push_back(ev);
    if (reference.size() > kCap) reference.pop_front();
  }
  EXPECT_EQ(sink.size(), kCap);
  EXPECT_EQ(sink.emitted(), 100u);
  EXPECT_EQ(sink.dropped(), 100u - kCap);
  const std::vector<TraceEvent> got = sink.snapshot();
  ASSERT_EQ(got.size(), reference.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_event_eq(got[i], reference[i]);
  }
}

TEST(BinaryRing, MaskedOffersStillAdvanceSeqDeltas) {
  // Only kPull stored: stored seqs form a gappy subsequence, so the
  // encoded seq deltas exceed 1 and must still reconstruct exactly.
  TraceSink sink(32, category_bit(Category::kPull));
  std::vector<std::uint64_t> want_seqs;
  for (std::uint64_t i = 0; i < 40; ++i) {
    const Category cat = i % 7 == 0 ? Category::kPull : Category::kPush;
    if (cat == Category::kPull) want_seqs.push_back(i);
    sink.record(1.0, cat, "op", i, 0, 0.0);
  }
  const std::vector<TraceEvent> got = sink.snapshot();
  ASSERT_EQ(got.size(), want_seqs.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].seq, want_seqs[i]);
    EXPECT_EQ(got[i].a, want_seqs[i]);
  }
  EXPECT_EQ(sink.emitted(), 40u);
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(BinaryRing, HeavyChurnSurvivesCompaction) {
  // Thousands of drops force the dead-prefix reclaim repeatedly; the
  // surviving window must always equal the reference deque's.
  constexpr std::size_t kCap = 7;
  TraceSink sink(kCap, obs::kAllCategories);
  std::deque<TraceEvent> reference;
  static const char* const names[] = {"a", "bb", "ccc", "dddd"};
  for (std::uint64_t i = 0; i < 5000; ++i) {
    const TraceEvent ev{static_cast<double>(i % 11), i,
                        static_cast<Category>(1u << (i % 10)),
                        names[i % 4], i << (i % 20), i,
                        i % 5 == 0 ? -0.0 : static_cast<double>(i)};
    sink.record(ev.time, ev.category, ev.name, ev.a, ev.b, ev.v);
    reference.push_back(ev);
    if (reference.size() > kCap) reference.pop_front();
  }
  std::vector<TraceEvent> want(reference.begin(), reference.end());
  std::stable_sort(want.begin(), want.end(),
                   [](const TraceEvent& l, const TraceEvent& r) {
                     if (l.time < r.time) return true;
                     if (r.time < l.time) return false;
                     return l.seq < r.seq;
                   });
  const std::vector<TraceEvent> got = sink.snapshot();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_event_eq(got[i], want[i]);
  }
}

TEST(BinaryRing, ClearRestartsStreamAndKeepsNamesValid) {
  TraceSink sink(8, obs::kAllCategories);
  sink.record(1.0, Category::kPush, "tx_start", 1, 2, 3.0);
  sink.record(2.0, Category::kPull, "tx_start", 4, 5, 6.0);
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.emitted(), 0u);
  EXPECT_EQ(sink.dropped(), 0u);
  sink.record(9.0, Category::kPush, "tx_start", 7, 0, 0.0);
  const std::vector<TraceEvent> got = sink.snapshot();
  ASSERT_EQ(got.size(), 1u);
  const TraceEvent want{9.0, 0, Category::kPush, "tx_start", 7, 0, 0.0};
  expect_event_eq(got[0], want);
}

// ------------------------------------------------ golden round trips -----
//
// The real CLI renders replicate traces through the binary ring and the
// deferred JSONL path; the bytes must match the committed fixture whatever
// the worker count, and after a crash + --resume.

#if defined(PUSHPULL_CLI_PATH) && defined(PUSHPULL_GOLDEN_DIR)

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << "cannot write " << path;
}

const char* kReplicateArgs =
    " replicate --items 12 --requests 80 --rate 2 --seed 9 --reps 6 "
    "--cutoff 5";

std::string golden_replicate() {
  return slurp(std::string(PUSHPULL_GOLDEN_DIR) + "/trace/"
               "trace_replicate.jsonl");
}

TEST(GoldenTraceRoundTrip, ByteIdenticalAcrossJobs128) {
  const std::string golden = golden_replicate();
  ASSERT_FALSE(golden.empty()) << "missing fixture trace_replicate.jsonl";
  const testing_util::CaseDir dir;
  for (const int jobs : {1, 2, 8}) {
    const std::string tmp =
        dir.path("trace_roundtrip_j" + std::to_string(jobs) + ".jsonl");
    const std::string cmd = std::string(PUSHPULL_CLI_PATH) + kReplicateArgs +
                            " --jobs " + std::to_string(jobs) + " --trace " +
                            tmp + " > /dev/null";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
    EXPECT_EQ(slurp(tmp), golden) << "jobs=" << jobs
                                  << " trace drifted from golden";
  }
}

TEST(GoldenTraceRoundTrip, KillAndResumeReproducesGolden) {
  const std::string golden = golden_replicate();
  ASSERT_FALSE(golden.empty()) << "missing fixture trace_replicate.jsonl";
  const testing_util::CaseDir dir;
  const std::string progress = dir.path("trace_roundtrip_progress.jsonl");
  const std::string tmp = dir.path("trace_roundtrip_resumed.jsonl");

  // Full run to get a complete progress log, then truncate it as a kill -9
  // mid-run would and resume from the remains.
  std::string cmd = std::string(PUSHPULL_CLI_PATH) + kReplicateArgs +
                    " --jobs 2 --progress " + progress + " --trace " + tmp +
                    " > /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
  const std::string full_log = slurp(progress);
  ASSERT_FALSE(full_log.empty());
  write_bytes(progress, full_log.substr(0, (2 * full_log.size()) / 3));

  cmd = std::string(PUSHPULL_CLI_PATH) + kReplicateArgs +
        " --jobs 3 --resume --progress " + progress + " --trace " + tmp +
        " > /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
  EXPECT_EQ(slurp(tmp), golden) << "resumed trace drifted from golden";
}

#endif  // PUSHPULL_CLI_PATH && PUSHPULL_GOLDEN_DIR

}  // namespace
}  // namespace pushpull
