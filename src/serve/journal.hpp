#pragma once

#include <bit>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

#include "core/result.hpp"

namespace pushpull::serve {

/// The conservation ledger the core keeps and the journal footer seals.
using ConservationLedger = core::ConservationLedger;

/// --- journal framing -------------------------------------------------------
///
/// An sv3 journal (the written format) opens with the 8 bytes of
/// kJournalMagic, then holds a sequence of frames:
///
///   <LEB128 varint: payload byte count> <payload> <CRC32C, 4 bytes LE>
///
/// The CRC covers the length bytes and the payload (the LevelDB/RocksDB
/// log-record layout), so truncation, a splice and any garbled byte all
/// end the valid prefix at a record boundary: the crash-recovery contract
/// of `pushpull serve --resume`.
///
/// An sv2 journal (read-only) is a sequence of text frames:
///
///   <8 lowercase hex digits: payload byte count> ' ' <payload> '\n'
///
/// It is told apart by its leading bytes: the magic's first byte is not a
/// hex digit. sv2 detects truncation and splices, but not a changed digit
/// inside a payload.
inline constexpr std::string_view kJournalMagic{"\x89sv3\r\n\x1a\n", 8};
/// Bytes an sv3 length varint may take; payloads are below 2^32 bytes.
inline constexpr std::size_t kMaxLengthBytes = 5;
inline constexpr std::size_t kCrcBytes = 4;

enum class JournalFormat { kSv2, kSv3 };

/// CRC32C (Castagnoli, reflected polynomial 0x82F63B78) of `n` bytes. Uses
/// the SSE4.2 instruction when the CPU has it, else crc32c_portable.
[[nodiscard]] std::uint32_t crc32c(const char* data, std::size_t n) noexcept;
/// The table-driven CRC32C every host can run; the same values.
[[nodiscard]] std::uint32_t crc32c_portable(const char* data,
                                            std::size_t n) noexcept;

/// The one sv3 framer. It builds a frame in a buffer it reuses: begin()
/// reserves room for the longest length varint, the payload is appended in
/// place, and finish() writes the length right-aligned in that room and
/// appends the CRC. Once the buffer has grown to the largest record,
/// encoding allocates nothing.
class FrameEncoder {
 public:
  /// Starts a new frame, discarding the previous one.
  FrameEncoder& begin() {
    buf_.resize(kMaxLengthBytes);
    return *this;
  }
  FrameEncoder& byte(std::uint8_t b) {
    buf_.push_back(static_cast<char>(b));
    return *this;
  }
  /// LEB128: 7 bits per byte, low bits first, high bit marks continuation.
  FrameEncoder& varint(std::uint64_t v) {
    char bytes[10];
    std::size_t n = 0;
    for (; v >= 0x80; v >>= 7) {
      bytes[n++] = static_cast<char>((v & 0x7F) | 0x80);
    }
    bytes[n++] = static_cast<char>(v);
    buf_.append(bytes, n);
    return *this;
  }
  /// Zigzag-mapped signed varint: small magnitudes of either sign are short.
  FrameEncoder& zigzag(std::int64_t v) {
    return varint((static_cast<std::uint64_t>(v) << 1) ^
                  static_cast<std::uint64_t>(v >> 63));
  }
  /// The raw IEEE-754 bits, little-endian: bit-exact, -0.0 and NaN
  /// payloads included.
  FrameEncoder& f64(double x) {
    auto bits = std::bit_cast<std::uint64_t>(x);
    char bytes[8];
    for (char& b : bytes) {
      b = static_cast<char>(bits & 0xFF);
      bits >>= 8;
    }
    buf_.append(bytes, sizeof bytes);
    return *this;
  }
  FrameEncoder& text(std::string_view s) {
    buf_.append(s);
    return *this;
  }

  /// Writes the length and appends the CRC. The view holds the whole frame
  /// and stays valid until the next begin(). Throws std::invalid_argument
  /// when the payload is 2^32 bytes or longer.
  [[nodiscard]] std::string_view finish();

 private:
  std::string buf_;
};

/// Frames one payload as sv3 (without the file magic).
[[nodiscard]] std::string frame_record(std::string_view payload);

/// The one frame reader, for both formats. It reads the file's leading
/// bytes to tell sv3 from sv2, pulls the stream in large blocks and hands
/// out each complete payload as a view into its block, so a scan holds one
/// block, not the journal. It stops at EOF or at the first malformed,
/// incomplete or corrupt frame; bad framing never throws — the valid
/// prefix is the result.
class FrameReader {
 public:
  explicit FrameReader(std::istream& in);

  /// Sets `payload` to the next complete record's payload and returns
  /// true, or returns false at the end of the valid prefix. The view
  /// stays valid until the next call.
  [[nodiscard]] bool next(std::string_view& payload);

  /// The file's format; meaningful once next() returned a record.
  [[nodiscard]] JournalFormat format() const noexcept { return format_; }
  /// Length of the valid prefix read so far (the sv3 magic included).
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
  /// Reads the leading bytes and sets format_.
  bool detect();
  bool next_sv3(std::string_view& payload);
  bool next_sv2(std::string_view& payload);

  std::istream& in_;
  std::unique_ptr<char[]> buf_;
  std::size_t capacity_ = 0;
  std::size_t pos_ = 0;  // first unread byte
  std::size_t end_ = 0;  // one past the last buffered byte
  std::uint64_t consumed_ = 0;
  JournalFormat format_ = JournalFormat::kSv3;
  bool detected_ = false;
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
