#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

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

/// Frames one payload (no embedded newlines allowed; throws
/// std::invalid_argument otherwise).
[[nodiscard]] std::string frame_record(std::string_view payload);

/// Result of scanning a (possibly truncated) framed stream.
struct JournalScan {
  std::vector<std::string> payloads;  // complete records, in order
  std::uint64_t bytes_consumed = 0;   // length of the valid prefix
  bool truncated = false;  // trailing partial/garbled bytes were discarded
};

/// Reads framed records until EOF or the first malformed/incomplete frame.
/// Never throws on bad framing — the valid prefix is the result.
[[nodiscard]] JournalScan scan_journal(std::istream& in);

/// File-backed journal sink with explicit durability: write through
/// stream(), then sync() flushes the stdio buffer and fdatasync()s the
/// file so every record written before the call survives a crash-kill.
/// TraceRecorder batches sync() every ServeConfig::journal_sync_every
/// records and always syncs at seal.
class JournalFile {
 public:
  /// Creates/truncates `path`; throws std::runtime_error when unwritable.
  explicit JournalFile(const std::string& path);
  ~JournalFile();
  JournalFile(const JournalFile&) = delete;
  JournalFile& operator=(const JournalFile&) = delete;

  [[nodiscard]] std::ostream& stream();
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Flush + fdatasync. Throws std::runtime_error on a write failure.
  void sync();

 private:
  struct Impl;
  Impl* impl_;
  std::string path_;
};

}  // namespace pushpull::serve
