// The sv2 journal codec: the one-buffer encoder against the stream renderer
// it replaced (kept here as the oracle), the block-streaming frame reader,
// and the durability of the buffered JournalFile.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "case_dir.hpp"
#include "obs/export.hpp"
#include "rng/xoshiro256ss.hpp"
#include "serve/serve.hpp"

namespace pushpull::serve {
namespace {

// ---------------------------------------------------------------------------
// The oracle: the ostringstream + render_number + frame_record renderer
// ---------------------------------------------------------------------------

std::string oracle_frame(const std::string& payload) {
  std::string out(8, '0');
  std::size_t len = payload.size();
  for (std::size_t i = 8; i-- > 0 && len > 0; len >>= 4) {
    out[i] = "0123456789abcdef"[len & 0xF];
  }
  out += ' ';
  out += payload;
  out += '\n';
  return out;
}

std::string oracle_request(const workload::Request& request, double t) {
  std::ostringstream payload;
  payload << "{\"t\":" << obs::render_number(t) << ",\"id\":" << request.id
          << ",\"item\":" << request.item
          << ",\"cls\":" << static_cast<std::uint64_t>(request.cls) << "}";
  return payload.str();
}

std::string oracle_decision(bool push, double t, catalog::ItemId item,
                            std::size_t delivered) {
  std::ostringstream payload;
  payload << "{\"d\":\"" << (push ? "push" : "pull")
          << "\",\"t\":" << obs::render_number(t) << ",\"item\":" << item
          << ",\"n\":" << delivered << "}";
  return payload.str();
}

std::string oracle_ladder(double t, int from, int to) {
  std::ostringstream payload;
  payload << "{\"d\":\"ladder\",\"t\":" << obs::render_number(t)
          << ",\"from\":" << from << ",\"to\":" << to << "}";
  return payload.str();
}

std::string oracle_drain(double t, std::uint64_t skipped) {
  std::ostringstream payload;
  payload << "{\"d\":\"drain\",\"t\":" << obs::render_number(t)
          << ",\"n\":" << skipped << "}";
  return payload.str();
}

// ---------------------------------------------------------------------------
// Seeded record values, edge values included
// ---------------------------------------------------------------------------

class Values {
 public:
  explicit Values(std::uint64_t seed) : eng_(seed) {}

  std::uint64_t u64() {
    static constexpr std::uint64_t kEdges[] = {
        0, 1, 9, 10, 0xFFFFFFFFull, 0x100000000ull,
        std::numeric_limits<std::uint64_t>::max()};
    if (eng_() % 4 == 0) return kEdges[eng_() % std::size(kEdges)];
    return eng_() >> (eng_() % 64);
  }

  std::uint32_t u32() { return static_cast<std::uint32_t>(u64()); }

  int small_int() {
    static constexpr int kEdges[] = {0, -1, 1, 4, -4,
                                     std::numeric_limits<int>::min(),
                                     std::numeric_limits<int>::max()};
    if (eng_() % 2 == 0) return kEdges[eng_() % std::size(kEdges)];
    return static_cast<int>(eng_() % 11) - 5;
  }

  double time() {
    static constexpr double kEdges[] = {
        0.0,
        -0.0,
        1.0,
        5.0,
        123456.0,
        0.1,
        1.0 / 3.0,
        1e15,
        1.5e15,
        123456789012345678.0,
        9007199254740992.0,
        1e300,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(),
        1e-310,
        -2.5e-320};
    switch (eng_() % 5) {
      case 0:
        return kEdges[eng_() % std::size(kEdges)];
      case 1:  // integral
        return static_cast<double>(eng_() >> (eng_() % 64));
      case 2:  // subnormal
        return std::bit_cast<double>(eng_() & 0x000FFFFFFFFFFFFFull);
      case 3: {  // any finite bit pattern
        const double x = std::bit_cast<double>(eng_());
        return std::isfinite(x) ? x : 0.5;
      }
      default:  // a broadcast-time stamp
        return static_cast<double>(eng_() >> 11) * 0x1p-53 * 1e5;
    }
  }

  std::uint64_t pick(std::uint64_t n) { return eng_() % n; }

 private:
  rng::Xoshiro256ss eng_;
};

ServeConfig small_config() {
  ServeConfig c;
  c.accelerated = true;
  c.duration = 5.0;
  c.target_qps = 4.0;
  c.num_items = 20;
  c.cutoff = 8;
  return c;
}

// Every payload of a framed stream, in order; the stream must be whole.
std::vector<std::string> read_payloads(const std::string& bytes) {
  std::istringstream in(bytes);
  FrameReader reader(in);
  std::vector<std::string> payloads;
  for (std::string_view payload; reader.next(payload);) {
    payloads.emplace_back(payload);
  }
  EXPECT_FALSE(reader.truncated());
  EXPECT_EQ(reader.bytes_consumed(), bytes.size());
  return payloads;
}

TEST(JournalCodec, EncoderMatchesTheStreamOracleByteForByte) {
  constexpr std::size_t kRecords = 120000;
  Values v(0x5EC0DEC);
  std::ostringstream out;
  std::vector<std::string> expected;  // oracle payloads after the header
  std::uint64_t requests = 0;
  std::uint64_t decisions = 0;
  {
    TraceRecorder recorder(out, small_config());
    for (std::size_t i = 0; i < kRecords; ++i) {
      const double t = v.time();
      switch (v.pick(4)) {
        case 0: {
          workload::Request r;
          r.id = v.u64();
          r.item = v.u32();
          r.cls = v.u32();
          recorder.record_request(r, t);
          expected.push_back(oracle_request(r, t));
          ++requests;
          break;
        }
        case 1: {
          const bool push = v.pick(2) == 0;
          const catalog::ItemId item = v.u32();
          const std::size_t n = v.pick(3) == 0 ? 0 : v.u64();
          recorder.record_decision(push, t, item, n);
          expected.push_back(oracle_decision(push, t, item, n));
          ++decisions;
          break;
        }
        case 2: {
          const int from = v.small_int();
          const int to = v.small_int();
          recorder.record_ladder(t, from, to);
          expected.push_back(oracle_ladder(t, from, to));
          ++decisions;
          break;
        }
        default: {
          const std::uint64_t n = v.pick(3) == 0 ? 0 : v.u64();
          recorder.record_drain(t, n);
          expected.push_back(oracle_drain(t, n));
          ++decisions;
          break;
        }
      }
    }
  }
  expected.push_back("{\"requests\":" + std::to_string(requests) +
                     ",\"decisions\":" + std::to_string(decisions) +
                     ",\"ledger\":" + ConservationLedger{}.render_json() +
                     "}");

  const std::string bytes = out.str();
  // The header renderer did not change; take its payload from the output
  // and check its framing with the rest.
  const std::vector<std::string> payloads = read_payloads(bytes);
  ASSERT_EQ(payloads.size(), expected.size() + 1);
  std::string oracle = oracle_frame(payloads.front());
  for (const std::string& payload : expected) oracle += oracle_frame(payload);
  const auto [got, want] =
      std::mismatch(bytes.begin(), bytes.end(), oracle.begin(), oracle.end());
  EXPECT_TRUE(got == bytes.end() && want == oracle.end())
      << "first difference at byte " << (got - bytes.begin());
}

TEST(JournalCodec, FrameRecordRejectsEmbeddedNewlines) {
  EXPECT_THROW((void)frame_record("{\"a\":1}\n{\"b\":2}"),
               std::invalid_argument);
  EXPECT_EQ(frame_record(""), "00000000 \n");
  EXPECT_EQ(frame_record("{}"), "00000002 {}\n");
}

TEST(JournalCodec, ReaderStreamsFramesAcrossBlocksAndGrowsForLargeOnes) {
  // Many small frames span the reader's block boundaries; one frame is
  // larger than a block.
  std::vector<std::string> payloads;
  std::string bytes;
  for (std::size_t i = 0; i < 40000; ++i) {
    payloads.push_back("{\"t\":" + std::to_string(i) + ",\"pad\":\"" +
                       std::string(i % 37, 'x') + "\"}");
    if (i == 20000) payloads.push_back(std::string(700000, 'y'));
  }
  for (const std::string& p : payloads) bytes += frame_record(p);
  EXPECT_EQ(read_payloads(bytes), payloads);

  // Cut inside the large frame: everything before it survives.
  std::istringstream in(bytes.substr(0, bytes.find(std::string(10, 'y'))));
  FrameReader reader(in);
  std::size_t read = 0;
  for (std::string_view payload; reader.next(payload);) ++read;
  EXPECT_EQ(read, 20001u);
  EXPECT_TRUE(reader.truncated());
}

TEST(JournalCodec, ReaderStopsAtGarbledLengthWithoutAllocatingIt) {
  // A prefix claiming ~4 GiB over a few bytes is truncation, not a
  // 4 GiB buffer.
  std::istringstream in(frame_record("{}") + "ffffffff {\"t\":1}\n");
  FrameReader reader(in);
  std::string_view payload;
  ASSERT_TRUE(reader.next(payload));
  EXPECT_EQ(payload, "{}");
  EXPECT_FALSE(reader.next(payload));
  EXPECT_TRUE(reader.truncated());
  EXPECT_EQ(reader.bytes_consumed(), 12u);
}

TEST(JournalCodec, LoaderReportsBrokenFramingBeforeABadRecord) {
  std::ostringstream header;
  { TraceRecorder recorder(header, small_config()); }
  std::istringstream header_in(header.str());
  FrameReader reader(header_in);
  std::string_view payload;
  ASSERT_TRUE(reader.next(payload));
  const std::string bad =
      header.str().substr(0, reader.bytes_consumed()) + frame_record("{}");
  const auto message = [](const std::string& bytes) {
    std::istringstream in(bytes);
    try {
      (void)load_trace(in);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_NE(message(bad).find("unrecognized record"), std::string::npos);
  // The bad record is read before the garbled tail, yet the framing fault
  // is what the loader reports, as when it scanned the whole file first.
  EXPECT_NE(message(bad + "0000zz {}\n").find("garbled or truncated"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Durability of the buffered JournalFile
// ---------------------------------------------------------------------------

TEST(JournalFile, EverySyncedRecordIsVisibleToASeparateReader) {
  const testing_util::CaseDir dir;
  const std::string path = dir.path("durable.svj");
  ServeConfig c = small_config();
  c.journal_sync_every = 4;
  JournalFile file(path);
  TraceRecorder recorder(file, c);
  std::uint64_t written = 1;  // the header
  for (std::uint64_t id = 0; id < 41; ++id) {
    workload::Request r;
    r.id = id;
    r.item = static_cast<catalog::ItemId>(id % c.num_items);
    r.cls = 0;
    recorder.record_request(r, static_cast<double>(id) * 0.25);
    ++written;
    if (written < c.journal_sync_every) continue;  // nothing synced yet
    const RecoveredRun seen = recover_trace_file(path);
    if (written % c.journal_sync_every == 0) {
      EXPECT_EQ(seen.records, written) << "after record " << written;
      EXPECT_EQ(seen.run.requests.size(), written - 1);
    }
    EXPECT_GE(seen.records, written - written % c.journal_sync_every);
    EXPECT_FALSE(seen.sealed);
  }
  recorder.seal(ConservationLedger{});
  const RecoveredRun sealed = recover_trace_file(path);
  EXPECT_TRUE(sealed.sealed);
  EXPECT_EQ(sealed.records, written + 1);
  EXPECT_EQ(sealed.run.requests.size(), 41u);
}

TEST(JournalFile, UnopenablePathThrowsFromTheConstructor) {
  const testing_util::CaseDir dir;
  EXPECT_THROW(JournalFile(dir.path("missing/journal.svj")),
               std::runtime_error);
  EXPECT_THROW(JournalFile(dir.dir()), std::runtime_error);
}

}  // namespace
}  // namespace pushpull::serve
