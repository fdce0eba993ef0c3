#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/server_core.hpp"
#include "serve/journal.hpp"
#include "serve/serve_config.hpp"
#include "workload/request.hpp"
#include "workload/trace.hpp"

namespace pushpull::serve {

/// Schema tags of the serve journal formats.
///
/// `sv3` (written): binary frames (see journal.hpp) forming a
/// crash-consistent write-ahead journal:
///   1. a header record: a JSON object carrying the full ServeConfig
///      including the live failure model (deadlines, fault channel, retry
///      policy, ladder, hedge/drain knobs) — everything replay and resume
///      need;
///   2. one binary request record per request, its time being the
///      *observed* arrival stamp;
///   3. interleaved binary decision records: push/pull transmissions,
///      overload-ladder transitions and drain engagement;
///   4. a sealing JSON `{"requests":N,"decisions":M,...ledger}` footer
///      carrying the conservation ledger.
/// A binary record is a RecordKind byte, the time as a raw little-endian
/// f64, then LEB128 varints: request = zigzag id delta from the previous
/// request, item, class; push/pull = item, requests delivered; ladder =
/// zigzag from, zigzag to; drain = arrivals skipped. Times are stored bit
/// for bit and nothing is rendered, so recording the same accelerated run
/// twice produces byte-identical files.
///
/// `sv2` (read-only): the same records as JSON payloads
/// (`{"t":..,"id":..,"item":..,"cls":..}`, `{"d":"push",..}`, ...) in
/// hex-length text frames. Times there are obs::render_number's shortest
/// round-trip form.
inline constexpr std::string_view kServeJournalSchema = "sv3";
inline constexpr std::string_view kServeJournalSchemaV2 = "sv2";

/// The first byte of an sv3 binary record. JSON payloads (header and
/// footer) open with '{' instead.
enum class RecordKind : std::uint8_t {
  kRequest = 1,
  kPush = 2,
  kPull = 3,
  kLadder = 4,
  kDrain = 5,
};

/// One decoded sv3 binary record; fields its kind does not carry are zero.
struct JournalRecord {
  RecordKind kind = RecordKind::kRequest;
  double time = 0.0;
  std::uint64_t id = 0;    // request
  std::uint64_t item = 0;  // request, push, pull
  std::uint64_t cls = 0;   // request
  std::uint64_t n = 0;     // push/pull: requests delivered; drain: skipped
  int from = 0;            // ladder
  int to = 0;              // ladder
};

/// Decodes the binary records of one sv3 journal in order; it carries the
/// request-id delta base from record to record.
class RecordDecoder {
 public:
  /// Throws std::runtime_error on an unknown kind, a field running past
  /// the payload, an overlong varint, a ladder level beyond `int`, or
  /// bytes left over.
  [[nodiscard]] JournalRecord decode(std::string_view payload);

 private:
  std::uint64_t prev_id_ = 0;
};

/// What the live server journals into: every decision, then the seal.
class JournalSink : public core::DecisionSink {
 public:
  /// Seals the journal with the run's conservation ledger.
  virtual void seal(const ConservationLedger& ledger) = 0;
};

/// Writes an sv3 journal. Single-writer by design: only the server thread
/// records (arrivals at dispatch, decisions at transmission start), so
/// records never interleave. When constructed over a JournalFile the
/// recorder fsyncs every `config.journal_sync_every` records (0 = only at
/// seal); over a plain ostream it just writes (tests record into strings).
/// Each record is encoded into one reused FrameEncoder and handed to the
/// sink in one write.
class TraceRecorder final : public JournalSink {
 public:
  /// Writes the magic and the header record immediately.
  TraceRecorder(std::ostream& out, const ServeConfig& config);
  /// Same, with fsync batching against the file.
  TraceRecorder(JournalFile& file, const ServeConfig& config);

  void record_request(const workload::Request& request,
                      double observed_time) override;
  void record_decision(bool push, double time, catalog::ItemId item,
                       std::size_t delivered) override;
  /// Stamps an overload-ladder transition into the decision log.
  void record_ladder(double time, int from, int to) override;
  /// Stamps drain engagement (admission stopped; `skipped` planned
  /// arrivals were never injected).
  void record_drain(double time, std::uint64_t skipped) override;

  /// Seals the journal: writes the footer with the conservation ledger and
  /// syncs. Idempotent.
  void seal(const ConservationLedger& ledger) override;

  /// Seals with a zero ledger (destructor safety net).
  void finish();

  ~TraceRecorder() override;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

 private:
  /// Writes the magic and the header.
  void start(const ServeConfig& config);
  /// Hands bytes to the sink.
  void write(std::string_view bytes);
  /// Finishes frame_ and writes it, syncing on schedule.
  void emit();

  FrameEncoder frame_;
  std::ostream* out_ = nullptr;
  JournalFile* file_ = nullptr;
  std::size_t sync_every_ = 0;
  std::size_t since_sync_ = 0;
  std::uint64_t requests_ = 0;
  std::uint64_t decisions_ = 0;
  std::uint64_t prev_id_ = 0;
  bool finished_ = false;
};

/// A parsed serve trace: the run's configuration plus its request log,
/// sorted by (arrival, id) — realtime pacer threads can interleave posts,
/// and workload::Trace requires sorted arrivals.
struct RecordedRun {
  ServeConfig config;
  std::vector<workload::Request> requests;
  std::uint64_t decisions = 0;
  /// The sealed footer's conservation ledger.
  ConservationLedger ledger;

  [[nodiscard]] workload::Trace trace() const {
    return workload::Trace(requests);
  }
};

/// Parses a complete serve journal (sv3, or sv2 — told apart by the leading
/// bytes). Throws std::runtime_error naming the record on any malformed
/// input: wrong schema, an invalid configuration, unparsable fields, a
/// missing footer, truncated or corrupt framing, or a footer count that
/// disagrees with the records actually present.
[[nodiscard]] RecordedRun load_trace(std::istream& in);

/// load_trace from a file path (std::runtime_error when unreadable).
[[nodiscard]] RecordedRun load_trace_file(const std::string& path);

/// Crash recovery: the longest valid prefix of a possibly truncated sv3 or
/// sv2 journal. The header must be intact (recovery without the config is
/// meaningless — std::runtime_error otherwise); everything after it is
/// salvaged record by record until the first incomplete/garbled frame or
/// unparsable payload.
struct RecoveredRun {
  RecordedRun run;
  /// True when the sealing footer was present and consistent — i.e. the
  /// journal is complete and `run` is the whole recording.
  bool sealed = false;
  /// Complete records salvaged (header included).
  std::uint64_t records = 0;
  /// Bytes of the valid prefix (what a repair would truncate the file to).
  std::uint64_t bytes_consumed = 0;
};

[[nodiscard]] RecoveredRun recover_trace(std::istream& in);
[[nodiscard]] RecoveredRun recover_trace_file(const std::string& path);

}  // namespace pushpull::serve
