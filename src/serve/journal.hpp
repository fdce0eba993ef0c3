#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

#include "core/result.hpp"

namespace pushpull::serve {

/// The conservation ledger the core keeps and the journal footer seals.
using ConservationLedger = core::ConservationLedger;

/// --- sv2 journal framing ---------------------------------------------------
///
/// An sv2 journal is a sequence of length-prefixed records:
///
///   <8 lowercase hex digits: payload byte count> <payload> '\n'
///
/// The payload is one JSON object (the same header/request/decision/footer
/// payloads the sv1 format used as bare lines). The fixed-width prefix
/// makes truncation detection exact: a reader accepts a record only when
/// the full prefix, separator, payload and terminating newline are all
/// present, so any byte-level truncation or splice cuts the journal at a
/// record boundary — the crash-recovery contract of `pushpull serve
/// --resume`.
inline constexpr std::size_t kFrameDigits = 8;

/// The one sv2 framer. It builds a frame in a buffer it reuses: begin()
/// reserves the length prefix, the payload is appended in place, and
/// finish() backfills the prefix and adds the newline. Once the buffer
/// has grown to the largest record, encoding allocates nothing.
class FrameEncoder {
 public:
  /// Starts a new frame, discarding the previous one.
  FrameEncoder& begin() {
    buf_.assign(kFrameDigits + 1, ' ');
    return *this;
  }
  FrameEncoder& text(std::string_view s) {
    buf_.append(s);
    return *this;
  }
  /// Decimal integer: no padding, a '-' only for negatives.
  template <std::integral Int>
  FrameEncoder& integer(Int v) {
    char digits[24];
    const auto res = std::to_chars(digits, digits + sizeof(digits), v);
    buf_.append(digits, res.ptr);
    return *this;
  }
  /// obs::render_number's shortest round-trip rendering.
  FrameEncoder& number(double x);

  /// Backfills the prefix and appends the newline. The view holds the
  /// whole frame and stays valid until the next begin(). Throws
  /// std::invalid_argument when the payload holds a newline or is too
  /// large for the prefix.
  [[nodiscard]] std::string_view finish();

 private:
  std::string buf_;
};

/// Frames one payload (no embedded newlines allowed; throws
/// std::invalid_argument otherwise).
[[nodiscard]] std::string frame_record(std::string_view payload);

/// The one sv2 frame reader. It pulls the stream in large blocks and hands
/// out each complete payload as a view into its block, so a scan holds one
/// block, not the journal. It stops at EOF or at the first malformed or
/// incomplete frame; bad framing never throws — the valid prefix is the
/// result.
class FrameReader {
 public:
  explicit FrameReader(std::istream& in);

  /// Sets `payload` to the next complete record's payload and returns
  /// true, or returns false at the end of the valid prefix. The view
  /// stays valid until the next call.
  [[nodiscard]] bool next(std::string_view& payload);

  /// Length of the valid prefix read so far.
  [[nodiscard]] std::uint64_t bytes_consumed() const noexcept {
    return consumed_;
  }
  /// True once next() stopped at trailing partial or garbled bytes.
  [[nodiscard]] bool truncated() const noexcept { return truncated_; }

 private:
  /// Makes `need` unread bytes available; false when the stream ends first.
  bool fill(std::size_t need);
  /// Ends the scan; `garbled` marks the stop as truncation.
  bool stop(bool garbled);

  std::istream& in_;
  std::unique_ptr<char[]> buf_;
  std::size_t capacity_ = 0;
  std::size_t pos_ = 0;  // first unread byte
  std::size_t end_ = 0;  // one past the last buffered byte
  std::uint64_t consumed_ = 0;
  bool eof_ = false;
  bool done_ = false;
  bool truncated_ = false;
};

/// File-backed journal sink with explicit durability. It owns one
/// descriptor and a write buffer: append() buffers whole frames and
/// write(2)s the buffer when it fills; sync() writes out the rest and
/// fdatasync()s, so every record appended before the call survives a
/// crash-kill. TraceRecorder syncs every ServeConfig::journal_sync_every
/// records and always at seal.
class JournalFile {
 public:
  /// Creates/truncates `path`; throws std::runtime_error when unwritable.
  explicit JournalFile(const std::string& path);
  /// Writes out what is buffered (without a sync) and closes.
  ~JournalFile();
  JournalFile(const JournalFile&) = delete;
  JournalFile& operator=(const JournalFile&) = delete;

  void append(std::string_view bytes);
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// write(2) + fdatasync. Throws std::runtime_error on a write failure.
  void sync();

 private:
  void write_out();

  int fd_ = -1;
  std::string buffer_;
  std::string path_;
};

}  // namespace pushpull::serve
