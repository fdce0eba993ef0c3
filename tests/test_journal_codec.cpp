// The journal codec: the sv3 one-buffer encoder against an independent
// byte oracle, CRC32C on every code path, the block-streaming frame reader
// on both formats, record-for-record identity of sv3 with the sv2 renderer
// it replaced, the committed sv2 fixture, corruption and mutation
// robustness, and the durability of the buffered JournalFile.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "case_dir.hpp"
#include "obs/export.hpp"
#include "rng/xoshiro256ss.hpp"
#include "serve/serve.hpp"
#include "serve_journal_util.hpp"

namespace pushpull::serve {
namespace {

using testing_util::journal_payloads;
using testing_util::journal_records;
using testing_util::serve_matrix;
using testing_util::sv3_journal;

// ---------------------------------------------------------------------------
// The sv2 oracle: the ostringstream + render_number renderer that wrote sv2
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
// The sv3 oracle: a bit-at-a-time CRC and byte-at-a-time fields
// ---------------------------------------------------------------------------

std::uint32_t oracle_crc32c(std::string_view bytes) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char c : bytes) {
    crc ^= static_cast<unsigned char>(c);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
  }
  return ~crc;
}

void oracle_varint(std::string& out, std::uint64_t v) {
  do {
    const auto low = static_cast<unsigned char>(v % 128);
    v /= 128;
    out += static_cast<char>(v > 0 ? low + 128 : low);
  } while (v > 0);
}

void oracle_zigzag(std::string& out, std::int64_t v) {
  oracle_varint(out, v >= 0 ? 2 * static_cast<std::uint64_t>(v)
                            : 2 * (~static_cast<std::uint64_t>(v)) + 1);
}

void oracle_f64(std::string& out, double x) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  for (int i = 0; i < 8; ++i) {
    out += static_cast<char>((bits >> (8 * i)) & 0xFF);
  }
}

std::string oracle_sv3_frame(const std::string& payload) {
  std::string frame;
  oracle_varint(frame, payload.size());
  frame += payload;
  const std::uint32_t crc = oracle_crc32c(frame);
  for (int i = 0; i < 4; ++i) {
    frame += static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  return frame;
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

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Field-by-field equality of two decoded records, times bit for bit.
void expect_same_record(const JournalRecord& got, const JournalRecord& want,
                        std::size_t at) {
  EXPECT_EQ(got.kind, want.kind) << "record " << at;
  EXPECT_TRUE(same_bits(got.time, want.time)) << "record " << at;
  EXPECT_EQ(got.id, want.id) << "record " << at;
  EXPECT_EQ(got.item, want.item) << "record " << at;
  EXPECT_EQ(got.cls, want.cls) << "record " << at;
  EXPECT_EQ(got.n, want.n) << "record " << at;
  EXPECT_EQ(got.from, want.from) << "record " << at;
  EXPECT_EQ(got.to, want.to) << "record " << at;
}

TEST(JournalCodec, EncoderMatchesTheStreamOracleByteForByte) {
  constexpr std::size_t kRecords = 120000;
  Values v(0x5EC0DEC);
  std::ostringstream out;
  std::vector<std::string> expected;  // oracle payloads after the header
  std::vector<JournalRecord> sent;    // what the recorder was handed
  std::uint64_t requests = 0;
  std::uint64_t decisions = 0;
  std::uint64_t prev_id = 0;
  {
    TraceRecorder recorder(out, small_config());
    for (std::size_t i = 0; i < kRecords; ++i) {
      JournalRecord rec;
      rec.time = v.time();
      std::string payload;
      switch (v.pick(4)) {
        case 0: {
          workload::Request r;
          r.id = v.u64();
          r.item = v.u32();
          r.cls = v.u32();
          recorder.record_request(r, rec.time);
          rec.kind = RecordKind::kRequest;
          rec.id = r.id;
          rec.item = r.item;
          rec.cls = r.cls;
          payload += static_cast<char>(RecordKind::kRequest);
          oracle_f64(payload, rec.time);
          oracle_zigzag(payload, static_cast<std::int64_t>(r.id - prev_id));
          oracle_varint(payload, r.item);
          oracle_varint(payload, r.cls);
          prev_id = r.id;
          ++requests;
          break;
        }
        case 1: {
          const bool push = v.pick(2) == 0;
          const catalog::ItemId item = v.u32();
          const std::size_t n = v.pick(3) == 0 ? 0 : v.u64();
          recorder.record_decision(push, rec.time, item, n);
          rec.kind = push ? RecordKind::kPush : RecordKind::kPull;
          rec.item = item;
          rec.n = n;
          payload += static_cast<char>(rec.kind);
          oracle_f64(payload, rec.time);
          oracle_varint(payload, item);
          oracle_varint(payload, n);
          ++decisions;
          break;
        }
        case 2: {
          const int from = v.small_int();
          const int to = v.small_int();
          recorder.record_ladder(rec.time, from, to);
          rec.kind = RecordKind::kLadder;
          rec.from = from;
          rec.to = to;
          payload += static_cast<char>(RecordKind::kLadder);
          oracle_f64(payload, rec.time);
          oracle_zigzag(payload, from);
          oracle_zigzag(payload, to);
          ++decisions;
          break;
        }
        default: {
          const std::uint64_t n = v.pick(3) == 0 ? 0 : v.u64();
          recorder.record_drain(rec.time, n);
          rec.kind = RecordKind::kDrain;
          rec.n = n;
          payload += static_cast<char>(RecordKind::kDrain);
          oracle_f64(payload, rec.time);
          oracle_varint(payload, n);
          ++decisions;
          break;
        }
      }
      expected.push_back(payload);
      sent.push_back(rec);
    }
  }
  expected.push_back("{\"requests\":" + std::to_string(requests) +
                     ",\"decisions\":" + std::to_string(decisions) +
                     ",\"ledger\":" + ConservationLedger{}.render_json() +
                     "}");

  const std::string bytes = out.str();
  // The header renderer did not change; take its payload from the output
  // and check its framing with the rest.
  const std::vector<std::string> payloads = journal_payloads(bytes);
  ASSERT_EQ(payloads.size(), expected.size() + 1);
  std::string oracle(kJournalMagic);
  oracle += oracle_sv3_frame(payloads.front());
  for (const std::string& payload : expected) {
    oracle += oracle_sv3_frame(payload);
  }
  const auto [got, want] =
      std::mismatch(bytes.begin(), bytes.end(), oracle.begin(), oracle.end());
  EXPECT_TRUE(got == bytes.end() && want == oracle.end())
      << "first difference at byte " << (got - bytes.begin());

  // And every record decodes to exactly what the recorder was handed.
  const std::vector<JournalRecord> decoded = journal_records(bytes);
  ASSERT_EQ(decoded.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    expect_same_record(decoded[i], sent[i], i);
  }
}

TEST(JournalCodec, Crc32cMatchesKnownValuesOnEveryPath) {
  // RFC 3720 (iSCSI) B.4 and the customary check value.
  const std::string check = "123456789";
  const std::string zeros(32, '\0');
  const std::string ones(32, '\xFF');
  for (const auto crc : {&crc32c, &crc32c_portable}) {
    EXPECT_EQ(crc(check.data(), check.size()), 0xE3069283u);
    EXPECT_EQ(crc(zeros.data(), zeros.size()), 0x8A9136AAu);
    EXPECT_EQ(crc(ones.data(), ones.size()), 0x62A8AB43u);
    EXPECT_EQ(crc(nullptr, 0), 0u);
  }
  // Every length and alignment the 8-byte loop and its tail can see.
  Values v(0xC2C32C);
  std::string bytes(300, '\0');
  for (char& c : bytes) c = static_cast<char>(v.pick(256));
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t n = 0; offset + n <= 200; ++n) {
      const char* p = bytes.data() + offset;
      const std::uint32_t want = oracle_crc32c(std::string_view(p, n));
      ASSERT_EQ(crc32c(p, n), want) << offset << "+" << n;
      ASSERT_EQ(crc32c_portable(p, n), want) << offset << "+" << n;
    }
  }
}

TEST(JournalCodec, FrameRecordFramesAnyBytes) {
  // sv3 payloads are binary: newlines, NULs and high bytes all frame.
  for (const std::string& payload :
       {std::string(), std::string("{}"), std::string("a\nb\n"),
        std::string("\0\xFF\x80\n", 4), std::string(127, 'x'),
        std::string(128, 'y'), std::string(20000, '\n')}) {
    EXPECT_EQ(frame_record(payload), oracle_sv3_frame(payload));
  }
  // An empty payload: a zero length byte and the CRC of that byte.
  EXPECT_EQ(frame_record("").substr(0, 1), std::string(1, '\0'));
  EXPECT_EQ(frame_record("").size(), 1 + kCrcBytes);
  const std::vector<std::string> payloads = {"a\nb", std::string("\0", 1),
                                             ""};
  EXPECT_EQ(journal_payloads(sv3_journal(payloads)), payloads);
}

TEST(JournalCodec, ReaderStreamsFramesAcrossBlocksAndGrowsForLargeOnes) {
  // Many small frames span the reader's block boundaries; one frame is
  // larger than a block. Both formats stream the same payloads.
  std::vector<std::string> payloads;
  for (std::size_t i = 0; i < 40000; ++i) {
    payloads.push_back("{\"t\":" + std::to_string(i) + ",\"pad\":\"" +
                       std::string(i % 37, 'x') + "\"}");
    if (i == 20000) payloads.push_back(std::string(700000, 'y'));
  }
  const std::string sv3 = sv3_journal(payloads);
  const std::string sv2 = [&payloads] {
    std::string out;
    for (const std::string& p : payloads) out += oracle_frame(p);
    return out;
  }();
  EXPECT_EQ(journal_payloads(sv3), payloads);
  EXPECT_EQ(journal_payloads(sv2), payloads);

  // Cut inside the large frame: everything before it survives.
  for (const std::string* bytes : {&sv3, &sv2}) {
    std::istringstream in(bytes->substr(0, bytes->find(std::string(10, 'y'))));
    FrameReader reader(in);
    std::size_t read = 0;
    for (std::string_view payload; reader.next(payload);) ++read;
    EXPECT_EQ(read, 20001u);
    EXPECT_TRUE(reader.truncated());
  }
}

TEST(JournalCodec, ReaderStopsAtGarbledLengthWithoutAllocatingIt) {
  // A length claiming ~4 GiB over a few bytes is truncation, not a 4 GiB
  // buffer; a length varint longer than five bytes is garble.
  const std::string frame = frame_record("{}");
  for (const std::string& tail :
       {std::string("\xFF\xFF\xFF\xFF\x0F{\"t\":1}", 12),
        std::string("\x80\x80\x80\x80\x80\x01{}\0\0\0\0", 12)}) {
    std::istringstream in(std::string(kJournalMagic) + frame + tail);
    FrameReader reader(in);
    std::string_view payload;
    ASSERT_TRUE(reader.next(payload));
    EXPECT_EQ(payload, "{}");
    EXPECT_EQ(reader.format(), JournalFormat::kSv3);
    EXPECT_FALSE(reader.next(payload));
    EXPECT_TRUE(reader.truncated());
    EXPECT_EQ(reader.bytes_consumed(), kJournalMagic.size() + frame.size());
  }
  // The same on sv2's hex prefix.
  std::istringstream in(oracle_frame("{}") + "ffffffff {\"t\":1}\n");
  FrameReader reader(in);
  std::string_view payload;
  ASSERT_TRUE(reader.next(payload));
  EXPECT_EQ(payload, "{}");
  EXPECT_EQ(reader.format(), JournalFormat::kSv2);
  EXPECT_FALSE(reader.next(payload));
  EXPECT_TRUE(reader.truncated());
  EXPECT_EQ(reader.bytes_consumed(), 12u);
}

std::string load_error(const std::string& bytes) {
  std::istringstream in(bytes);
  try {
    (void)load_trace(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "no error";
}

TEST(JournalCodec, LoaderReportsBrokenFramingBeforeABadRecord) {
  std::ostringstream header;
  { TraceRecorder recorder(header, small_config()); }
  const std::string head =
      sv3_journal({journal_payloads(header.str()).front()});
  // A well-framed record of no known kind.
  const std::string bad = head + frame_record("\x7F");
  EXPECT_NE(load_error(bad).find("unrecognized record"), std::string::npos);
  // The bad record is read before the garbled tail, yet the framing fault
  // is what the loader reports, as when it scanned the whole file first.
  std::string corrupt = frame_record("\x01");
  corrupt.back() = static_cast<char>(corrupt.back() ^ 0x40);
  EXPECT_NE(load_error(bad + corrupt).find("garbled or truncated"),
            std::string::npos);
}

TEST(JournalCodec, DecoderRejectsEveryMalformedRecord) {
  std::string request(1, static_cast<char>(RecordKind::kRequest));
  oracle_f64(request, 1.5);
  for (const std::string& payload :
       {std::string(), std::string("\x00", 1), std::string("\x06"),
        std::string("\x01\x00\x00", 3),                    // time cut short
        request,                                           // no fields
        request + std::string("\x02\x03", 2),              // no class
        request + std::string("\x02\x03\x01\x00", 4),      // a byte left over
        request + std::string("\x80\x80", 2) + "\x01\x01",  // varint runs on
        request + std::string(10, '\xFF') + "\x01" + "\x01\x01",  // > 10 bytes
        request + std::string(9, '\xFF') + "\x02" + "\x01\x01"}) {  // > 2^64
    RecordDecoder decoder;
    EXPECT_THROW((void)decoder.decode(payload), std::runtime_error)
        << testing::PrintToString(payload);
  }
  // A ladder level beyond int.
  std::string ladder(1, static_cast<char>(RecordKind::kLadder));
  oracle_f64(ladder, 1.0);
  oracle_zigzag(ladder, std::int64_t{1} << 40);
  oracle_zigzag(ladder, 0);
  RecordDecoder decoder;
  EXPECT_THROW((void)decoder.decode(ladder), std::runtime_error);
  // The longest valid varint decodes.
  std::string drain(1, static_cast<char>(RecordKind::kDrain));
  oracle_f64(drain, 2.0);
  oracle_varint(drain, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(decoder.decode(drain).n, std::numeric_limits<std::uint64_t>::max());
}

// ---------------------------------------------------------------------------
// sv3 and sv2 hold the same records
// ---------------------------------------------------------------------------

/// The header payload TraceRecorder writes for `config`.
std::string header_payload(const ServeConfig& config) {
  std::ostringstream out;
  { TraceRecorder recorder(out, config); }
  return journal_payloads(out.str()).front();
}

/// Records every decision twice in the same run: into sv3 through the
/// TraceRecorder, and into sv2 through the oracle renderer.
class TeeSink final : public JournalSink {
 public:
  TeeSink(std::ostream& sv3, const ServeConfig& config)
      : sv3_(sv3, config) {
    std::string header = header_payload(config);
    header.replace(header.find("\"sv3\""), 5, "\"sv2\"");
    sv2_ = oracle_frame(header);
  }

  void record_request(const workload::Request& request,
                      double observed_time) override {
    sv3_.record_request(request, observed_time);
    sv2_ += oracle_frame(oracle_request(request, observed_time));
    ++requests_;
  }
  void record_decision(bool push, double time, catalog::ItemId item,
                       std::size_t delivered) override {
    sv3_.record_decision(push, time, item, delivered);
    sv2_ += oracle_frame(oracle_decision(push, time, item, delivered));
    ++decisions_;
  }
  void record_ladder(double time, int from, int to) override {
    sv3_.record_ladder(time, from, to);
    sv2_ += oracle_frame(oracle_ladder(time, from, to));
    ++decisions_;
  }
  void record_drain(double time, std::uint64_t skipped) override {
    sv3_.record_drain(time, skipped);
    sv2_ += oracle_frame(oracle_drain(time, skipped));
    ++decisions_;
  }
  void seal(const ConservationLedger& ledger) override {
    sv3_.seal(ledger);
    sv2_ += oracle_frame("{\"requests\":" + std::to_string(requests_) +
                         ",\"decisions\":" + std::to_string(decisions_) +
                         ",\"ledger\":" + ledger.render_json() + "}");
  }

  [[nodiscard]] const std::string& sv2() const noexcept { return sv2_; }

 private:
  TraceRecorder sv3_;
  std::string sv2_;
  std::uint64_t requests_ = 0;
  std::uint64_t decisions_ = 0;
};

struct TeeRun {
  std::string sv3;
  std::string sv2;
};

TeeRun run_tee(const ServeConfig& c) {
  const auto cat = c.build_catalog();
  const auto pop = c.build_population();
  LoadDriver driver(cat, pop, c.target_qps, c.duration, c.seed);
  std::ostringstream sv3;
  TeeRun run;
  {
    TeeSink tee(sv3, c);
    LiveServer server(cat, pop, c);
    (void)server.run_accelerated(driver, &tee);
    run.sv2 = tee.sv2();
  }
  run.sv3 = sv3.str();
  return run;
}

/// Value `key` of an sv2 JSON payload.
template <class T>
T sv2_field(std::string_view payload, std::string_view key) {
  const std::string pattern = "\"" + std::string(key) + "\":";
  const std::size_t at = payload.find(pattern);
  EXPECT_NE(at, std::string_view::npos) << key << " in " << payload;
  T value{};
  if (at == std::string_view::npos) return value;
  const char* begin = payload.data() + at + pattern.size();
  const auto [end, ec] =
      std::from_chars(begin, payload.data() + payload.size(), value);
  EXPECT_EQ(ec, std::errc{}) << key << " in " << payload;
  return value;
}

/// Decodes one sv2 body payload into the sv3 record form.
JournalRecord parse_sv2(std::string_view payload) {
  JournalRecord r;
  r.time = sv2_field<double>(payload, "t");
  if (payload.starts_with("{\"t\":")) {
    r.kind = RecordKind::kRequest;
    r.id = sv2_field<std::uint64_t>(payload, "id");
    r.item = sv2_field<std::uint64_t>(payload, "item");
    r.cls = sv2_field<std::uint64_t>(payload, "cls");
  } else if (payload.starts_with("{\"d\":\"pu")) {
    r.kind = payload.starts_with("{\"d\":\"push\"") ? RecordKind::kPush
                                                   : RecordKind::kPull;
    r.item = sv2_field<std::uint64_t>(payload, "item");
    r.n = sv2_field<std::uint64_t>(payload, "n");
  } else if (payload.starts_with("{\"d\":\"ladder\"")) {
    r.kind = RecordKind::kLadder;
    r.from = sv2_field<int>(payload, "from");
    r.to = sv2_field<int>(payload, "to");
  } else {
    EXPECT_TRUE(payload.starts_with("{\"d\":\"drain\"")) << payload;
    r.kind = RecordKind::kDrain;
    r.n = sv2_field<std::uint64_t>(payload, "n");
  }
  return r;
}

void expect_same_run(const RecordedRun& got, const RecordedRun& want) {
  EXPECT_EQ(header_payload(got.config), header_payload(want.config));
  ASSERT_EQ(got.requests.size(), want.requests.size());
  for (std::size_t i = 0; i < got.requests.size(); ++i) {
    const workload::Request& a = got.requests[i];
    const workload::Request& b = want.requests[i];
    EXPECT_TRUE(a.id == b.id && a.item == b.item && a.cls == b.cls &&
                same_bits(a.arrival, b.arrival))
        << "request " << i;
  }
  EXPECT_EQ(got.decisions, want.decisions);
  EXPECT_EQ(got.ledger.render_json(), want.ledger.render_json());
}

RecordedRun load(const std::string& bytes) {
  std::istringstream in(bytes);
  return load_trace(in);
}

TEST(StreamIdentity, Sv3AndSv2HoldTheSameRecordsAcrossTheServeMatrix) {
  const std::vector<testing_util::MatrixCase> matrix = serve_matrix();
  ASSERT_EQ(matrix.size(), 24u);
  for (const testing_util::MatrixCase& m : matrix) {
    SCOPED_TRACE(m.name);
    const TeeRun run = run_tee(m.config);
    const std::vector<std::string> sv3 = journal_payloads(run.sv3);
    const std::vector<std::string> sv2 = journal_payloads(run.sv2);
    ASSERT_EQ(sv3.size(), sv2.size());
    ASSERT_GE(sv3.size(), 2u);
    // The JSON header differs only in its schema tag; the footer not at all.
    std::string header = sv3.front();
    header.replace(header.find("\"sv3\""), 5, "\"sv2\"");
    EXPECT_EQ(header, sv2.front());
    EXPECT_EQ(sv3.back(), sv2.back());
    // Every body record: same kind, bit-identical fields.
    const std::vector<JournalRecord> records = journal_records(run.sv3);
    ASSERT_EQ(records.size(), sv2.size() - 2);
    for (std::size_t i = 0; i < records.size(); ++i) {
      expect_same_record(records[i], parse_sv2(sv2[i + 1]), i);
    }
    // And both load to the same run.
    expect_same_run(load(run.sv3), load(run.sv2));
  }
}

TEST(Sv2Fixture, LoadsToTheSameRunAsTheSv3RecordingOfItsConfig) {
  // tests/golden/serve/plain0_sv2.svj was written by the last sv2 writer
  // from the plain@0 matrix case.
  std::ifstream in(std::string(PUSHPULL_GOLDEN_DIR) +
                       "/serve/plain0_sv2.svj",
                   std::ios::binary);
  ASSERT_TRUE(in.is_open()) << "missing tests/golden/serve/plain0_sv2.svj";
  std::ostringstream fixture;
  fixture << in.rdbuf();
  const testing_util::MatrixCase plain = serve_matrix().front();
  ASSERT_EQ(plain.name, "plain@0");
  const TeeRun run = run_tee(plain.config);
  // The oracle is that writer, byte for byte ...
  EXPECT_EQ(run.sv2, fixture.str());
  // ... and the fixture loads to what its sv3 recording loads to.
  expect_same_run(load(fixture.str()), load(run.sv3));
  // Recovery reads sv2 too: whole, it is sealed; cut, it salvages a prefix.
  std::istringstream whole(fixture.str());
  const RecoveredRun all = recover_trace(whole);
  EXPECT_TRUE(all.sealed);
  EXPECT_EQ(all.bytes_consumed, fixture.str().size());
  std::istringstream half(fixture.str().substr(0, fixture.str().size() / 2));
  const RecoveredRun cut = recover_trace(half);
  EXPECT_FALSE(cut.sealed);
  EXPECT_GT(cut.run.requests.size(), 0u);
  EXPECT_LT(cut.run.requests.size(), all.run.requests.size());
}

// ---------------------------------------------------------------------------
// Corruption and mutation robustness
// ---------------------------------------------------------------------------

/// A small journal and the byte offset where each frame ends.
struct FramedJournal {
  std::string bytes;
  std::vector<std::size_t> frame_end;
};

FramedJournal small_journal() {
  ServeConfig c = testing_util::robust_base();
  c.duration = 12.0;
  c.mean_deadline = 3.0;
  FramedJournal j;
  j.bytes = testing_util::run_journaled(c).trace;
  std::istringstream in(j.bytes);
  FrameReader reader(in);
  for (std::string_view payload; reader.next(payload);) {
    j.frame_end.push_back(static_cast<std::size_t>(reader.bytes_consumed()));
  }
  EXPECT_EQ(j.frame_end.back(), j.bytes.size());
  return j;
}

TEST(JournalCodec, EveryBitFlipInTheFirst64RecordsIsCaught) {
  const FramedJournal j = small_journal();
  ASSERT_GT(j.frame_end.size(), 66u) << "the journal must outlast 64 records";
  std::size_t flips = 0;
  // Record 0 is the header; its range takes in the magic.
  for (std::size_t record = 0; record < 64; ++record) {
    const std::size_t begin = record == 0 ? 0 : j.frame_end[record - 1];
    for (std::size_t at = begin; at < j.frame_end[record]; ++at) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string bytes = j.bytes;
        bytes[at] = static_cast<char>(bytes[at] ^ (1 << bit));
        ++flips;
        std::istringstream load_in(bytes);
        ASSERT_THROW((void)load_trace(load_in), std::runtime_error)
            << "byte " << at << " bit " << bit;
        std::istringstream recover_in(bytes);
        if (record == 0) {
          ASSERT_THROW((void)recover_trace(recover_in), std::runtime_error)
              << "byte " << at << " bit " << bit;
          continue;
        }
        const RecoveredRun r = recover_trace(recover_in);
        ASSERT_LE(r.records, record) << "byte " << at << " bit " << bit;
        ASSERT_FALSE(r.sealed);
      }
    }
  }
  EXPECT_GT(flips, 64u * 8u * 8u);
}

/// Feeds `bytes` to both readers: each must return or throw
/// std::runtime_error, nothing else.
void expect_only_runtime_errors(const std::string& bytes, std::size_t trial) {
  for (const bool recover : {false, true}) {
    std::istringstream in(bytes);
    try {
      if (recover) {
        (void)recover_trace(in);
      } else {
        (void)load_trace(in);
      }
    } catch (const std::runtime_error&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "trial " << trial << (recover ? " recover" : " load")
                    << " threw " << e.what();
    }
  }
}

TEST(JournalCodec, RandomMutationsOnlyReturnOrThrowRuntimeError) {
  const FramedJournal j = small_journal();
  const std::vector<std::string> payloads = journal_payloads(j.bytes);
  Values v(0xF0221);
  const auto random_bytes = [&v](std::size_t n) {
    std::string out(n, '\0');
    for (char& c : out) c = static_cast<char>(v.pick(256));
    return out;
  };
  constexpr std::size_t kTrials = 1500;
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    std::string bytes;
    switch (trial % 3) {
      case 0: {
        // Random bytes, half of them behind the sv3 magic.
        bytes = random_bytes(v.pick(300));
        if (v.pick(2) == 0) bytes.insert(0, kJournalMagic);
        break;
      }
      case 1: {
        // The journal's bytes with a few overwrites, insertions,
        // deletions, spliced copies and a truncation.
        bytes = j.bytes;
        for (std::uint64_t k = 1 + v.pick(6); k > 0 && !bytes.empty(); --k) {
          const std::size_t at = v.pick(bytes.size());
          switch (v.pick(5)) {
            case 0:
              bytes[at] = static_cast<char>(v.pick(256));
              break;
            case 1:
              bytes.insert(at, random_bytes(1 + v.pick(8)));
              break;
            case 2:
              bytes.erase(at, 1 + v.pick(8));
              break;
            case 3:
              bytes.insert(v.pick(bytes.size()),
                           bytes.substr(at, 1 + v.pick(64)));
              break;
            default:
              bytes.resize(at);
              break;
          }
        }
        break;
      }
      default: {
        // Intact framing around mutated payloads: the record decoder and
        // the header parser see the garbage, not just the CRC.
        std::vector<std::string> mutated = payloads;
        for (std::uint64_t k = 1 + v.pick(4); k > 0; --k) {
          std::string& p = mutated[v.pick(mutated.size())];
          if (p.empty() || v.pick(4) == 0) {
            p = random_bytes(v.pick(24));
          } else if (v.pick(2) == 0) {
            p[v.pick(p.size())] = static_cast<char>(v.pick(256));
          } else {
            p.resize(v.pick(p.size()));
          }
        }
        bytes = sv3_journal(mutated);
        break;
      }
    }
    expect_only_runtime_errors(bytes, trial);
  }
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
