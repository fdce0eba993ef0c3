#include "serve/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <istream>
#include <stdexcept>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace pushpull::serve {

namespace {

constexpr std::uint32_t kCrcPoly = 0x82F63B78u;

constexpr std::array<std::uint32_t, 256> kCrcTable = [] {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? kCrcPoly : 0u);
    }
    table[i] = crc;
  }
  return table;
}();

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PUSHPULL_CRC32C_SSE42 1

__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    const char* data, std::size_t n) noexcept {
  std::uint64_t crc = 0xFFFFFFFFu;
  for (; n >= 8; data += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, data, sizeof word);
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; n > 0; ++data, --n) {
    crc32 = _mm_crc32_u8(crc32, static_cast<unsigned char>(*data));
  }
  return ~crc32;
}

[[nodiscard]] bool cpu_has_sse42() noexcept {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2") != 0;
}
#endif

}  // namespace

std::uint32_t crc32c_portable(const char* data, std::size_t n) noexcept {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    crc = kCrcTable[(crc ^ static_cast<unsigned char>(data[i])) & 0xFFu] ^
          (crc >> 8);
  }
  return ~crc;
}

std::uint32_t crc32c(const char* data, std::size_t n) noexcept {
#ifdef PUSHPULL_CRC32C_SSE42
  static const bool hardware = cpu_has_sse42();
  if (hardware) return crc32c_sse42(data, n);
#endif
  return crc32c_portable(data, n);
}

std::string_view FrameEncoder::finish() {
  const std::size_t length = buf_.size() - kMaxLengthBytes;
  if (length > 0xFFFFFFFFu) {
    throw std::invalid_argument("frame_record: payload too large to frame");
  }
  char head[kMaxLengthBytes];
  std::size_t n = 0;
  for (std::size_t v = length; ; v >>= 7) {
    head[n++] = static_cast<char>(v >= 0x80 ? (v & 0x7F) | 0x80 : v);
    if (v < 0x80) break;
  }
  const std::size_t start = kMaxLengthBytes - n;
  std::memcpy(buf_.data() + start, head, n);
  std::uint32_t crc = crc32c(buf_.data() + start, buf_.size() - start);
  char tail[kCrcBytes];
  for (char& b : tail) {
    b = static_cast<char>(crc & 0xFF);
    crc >>= 8;
  }
  buf_.append(tail, kCrcBytes);
  return std::string_view(buf_).substr(start);
}

std::string frame_record(std::string_view payload) {
  FrameEncoder frame;
  return std::string(frame.begin().text(payload).finish());
}

namespace {

/// Hex digits of an sv2 length prefix.
constexpr std::size_t kFrameDigits = 8;
/// Bytes the reader pulls from its stream per read.
constexpr std::size_t kReadBlock = std::size_t{1} << 18;
/// The shortest sv3 frame: a one-byte length, no payload, the CRC.
constexpr std::size_t kMinFrame = 1 + kCrcBytes;

[[nodiscard]] bool hex_value(char c, std::size_t& out) noexcept {
  if (c >= '0' && c <= '9') {
    out = static_cast<std::size_t>(c - '0');
    return true;
  }
  if (c >= 'a' && c <= 'f') {
    out = static_cast<std::size_t>(c - 'a') + 10;
    return true;
  }
  return false;
}

}  // namespace

FrameReader::FrameReader(std::istream& in) : in_(in) {}

bool FrameReader::fill(std::size_t need) {
  if (end_ - pos_ >= need) return true;
  // Move the unread tail to the front, then read until `need` bytes are
  // buffered. The buffer grows only as bytes arrive, so a garbled length
  // cannot make it allocate more than the stream holds.
  if (pos_ > 0) {
    std::memmove(buf_.get(), buf_.get() + pos_, end_ - pos_);
    end_ -= pos_;
    pos_ = 0;
  }
  while (end_ < need && !eof_) {
    if (end_ == capacity_) {
      const std::size_t grown =
          std::max(kReadBlock, std::min(need, 2 * capacity_));
      auto bigger = std::make_unique_for_overwrite<char[]>(grown);
      if (end_ > 0) std::memcpy(bigger.get(), buf_.get(), end_);
      buf_ = std::move(bigger);
      capacity_ = grown;
    }
    in_.read(buf_.get() + end_, static_cast<std::streamsize>(capacity_ - end_));
    const auto got = static_cast<std::size_t>(in_.gcount());
    end_ += got;
    if (got == 0 || !in_) eof_ = true;
  }
  return end_ - pos_ >= need;
}

bool FrameReader::stop(bool garbled) {
  done_ = true;
  truncated_ = garbled;
  return false;
}

bool FrameReader::detect() {
  detected_ = true;
  if (!fill(1)) return stop(false);  // an empty stream
  if (buf_[pos_] != kJournalMagic.front()) {
    format_ = JournalFormat::kSv2;
    return true;
  }
  if (!fill(kJournalMagic.size()) ||
      std::string_view(buf_.get() + pos_, kJournalMagic.size()) !=
          kJournalMagic) {
    return stop(true);
  }
  pos_ += kJournalMagic.size();
  consumed_ += kJournalMagic.size();
  return true;
}

bool FrameReader::next(std::string_view& payload) {
  if (done_) return false;
  if (!detected_ && !detect()) return false;
  return format_ == JournalFormat::kSv3 ? next_sv3(payload)
                                        : next_sv2(payload);
}

bool FrameReader::next_sv3(std::string_view& payload) {
  if (!fill(kMinFrame)) {
    return stop(end_ > pos_);  // clean EOF only at a record boundary
  }
  // kMinFrame covers the longest length varint too.
  static_assert(kMinFrame >= kMaxLengthBytes);
  const char* head = buf_.get() + pos_;
  std::size_t length = 0;
  std::size_t n = 0;
  for (;;) {
    if (n == kMaxLengthBytes) return stop(true);
    const auto byte = static_cast<unsigned char>(head[n]);
    length |= static_cast<std::size_t>(byte & 0x7F) << (7 * n);
    ++n;
    if ((byte & 0x80) == 0) break;
  }
  if (length > 0xFFFFFFFFu) return stop(true);
  const std::size_t frame = n + length + kCrcBytes;
  if (!fill(frame)) return stop(true);
  head = buf_.get() + pos_;
  std::uint32_t stored = 0;
  for (std::size_t i = kCrcBytes; i-- > 0;) {
    stored = (stored << 8) | static_cast<unsigned char>(head[n + length + i]);
  }
  if (crc32c(head, n + length) != stored) return stop(true);
  payload = std::string_view(head + n, length);
  pos_ += frame;
  consumed_ += frame;
  return true;
}

bool FrameReader::next_sv2(std::string_view& payload) {
  constexpr std::size_t kHead = kFrameDigits + 1;
  if (!fill(kHead)) {
    return stop(end_ > pos_);  // clean EOF only at a record boundary
  }
  const char* head = buf_.get() + pos_;
  std::size_t length = 0;
  bool valid = head[kFrameDigits] == ' ';
  for (std::size_t i = 0; valid && i < kFrameDigits; ++i) {
    std::size_t digit = 0;
    valid = hex_value(head[i], digit);
    length = (length << 4) | digit;
  }
  if (!valid) return stop(true);
  const std::size_t frame = kHead + length + 1;
  if (!fill(frame)) return stop(true);
  const char* body = buf_.get() + pos_ + kHead;
  if (body[length] != '\n' || std::memchr(body, '\n', length) != nullptr) {
    return stop(true);  // garbled, or a spliced frame hiding a record
  }
  payload = std::string_view(body, length);
  pos_ += frame;
  consumed_ += frame;
  return true;
}

namespace {

/// Bytes JournalFile buffers before it write(2)s without a sync.
constexpr std::size_t kWriteBuffer = std::size_t{1} << 16;

}  // namespace

JournalFile::JournalFile(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd_ < 0) {
    throw std::runtime_error("JournalFile: cannot open \"" + path +
                             "\" for writing");
  }
  buffer_.reserve(kWriteBuffer);
}

JournalFile::~JournalFile() {
  try {
    write_out();
  } catch (const std::runtime_error&) {
    // A destructor cannot report it; sync() is where failures surface.
  }
  ::close(fd_);
}

void JournalFile::append(std::string_view bytes) {
  if (buffer_.size() + bytes.size() > kWriteBuffer) write_out();
  buffer_.append(bytes);
}

void JournalFile::write_out() {
  std::size_t done = 0;
  while (done < buffer_.size()) {
    const ssize_t n =
        ::write(fd_, buffer_.data() + done, buffer_.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      buffer_.erase(0, done);
      throw std::runtime_error("JournalFile: write failure on \"" + path_ +
                               "\"");
    }
    done += static_cast<std::size_t>(n);
  }
  buffer_.clear();
}

void JournalFile::sync() {
  write_out();
  // Durability barrier: every framed record written so far survives a
  // crash-kill. Failure is not fatal (e.g. fdatasync on a pipe) — the
  // write above already pushed the bytes to the OS.
  (void)::fdatasync(fd_);
}

}  // namespace pushpull::serve
