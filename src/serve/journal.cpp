#include "serve/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <istream>
#include <stdexcept>

#include "obs/export.hpp"

namespace pushpull::serve {

FrameEncoder& FrameEncoder::number(double x) {
  obs::append_number(buf_, x);
  return *this;
}

std::string_view FrameEncoder::finish() {
  const std::string_view payload =
      std::string_view(buf_).substr(kFrameDigits + 1);
  if (payload.find('\n') != std::string_view::npos) {
    throw std::invalid_argument(
        "frame_record: payload must not contain a newline");
  }
  // Fixed-width lowercase hex length prefix.
  std::size_t len = payload.size();
  for (std::size_t i = kFrameDigits; i-- > 0; len >>= 4) {
    buf_[i] = "0123456789abcdef"[len & 0xF];
  }
  if (len > 0) {
    throw std::invalid_argument("frame_record: payload too large to frame");
  }
  buf_ += '\n';
  return buf_;
}

std::string frame_record(std::string_view payload) {
  FrameEncoder frame;
  return std::string(frame.begin().text(payload).finish());
}

namespace {

/// Bytes the reader pulls from its stream per read.
constexpr std::size_t kReadBlock = std::size_t{1} << 18;

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
  // prefix cannot make it allocate more than the stream holds.
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

bool FrameReader::next(std::string_view& payload) {
  if (done_) return false;
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
