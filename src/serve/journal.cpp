#include "serve/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <fstream>
#include <istream>
#include <stdexcept>

namespace pushpull::serve {

std::string frame_record(std::string_view payload) {
  if (payload.find('\n') != std::string_view::npos) {
    throw std::invalid_argument(
        "frame_record: payload must not contain a newline");
  }
  // Fixed-width lowercase hex length prefix.
  std::string out(kFrameDigits, '0');
  std::size_t len = payload.size();
  for (std::size_t i = kFrameDigits; i-- > 0 && len > 0; len >>= 4) {
    out[i] = "0123456789abcdef"[len & 0xF];
  }
  if (len > 0) {
    throw std::invalid_argument("frame_record: payload too large to frame");
  }
  out += ' ';
  out += payload;
  out += '\n';
  return out;
}

namespace {

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

JournalScan scan_journal(std::istream& in) {
  JournalScan scan;
  std::string buffer;
  while (true) {
    char prefix[kFrameDigits + 1];
    in.read(prefix, static_cast<std::streamsize>(kFrameDigits + 1));
    const std::size_t got = static_cast<std::size_t>(in.gcount());
    if (got == 0) return scan;  // clean EOF at a record boundary
    if (got < kFrameDigits + 1) {
      scan.truncated = true;
      return scan;
    }
    std::size_t length = 0;
    bool valid = prefix[kFrameDigits] == ' ';
    for (std::size_t i = 0; valid && i < kFrameDigits; ++i) {
      std::size_t digit = 0;
      valid = hex_value(prefix[i], digit);
      length = (length << 4) | digit;
    }
    if (!valid) {
      scan.truncated = true;
      return scan;
    }
    buffer.resize(length + 1);
    in.read(buffer.data(), static_cast<std::streamsize>(length + 1));
    if (static_cast<std::size_t>(in.gcount()) < length + 1 ||
        buffer[length] != '\n') {
      scan.truncated = true;
      return scan;
    }
    buffer.pop_back();  // drop the newline
    if (buffer.find('\n') != std::string::npos) {
      scan.truncated = true;  // spliced frame hiding an embedded record
      return scan;
    }
    scan.payloads.push_back(buffer);
    scan.bytes_consumed += kFrameDigits + 1 + length + 1;
  }
}

struct JournalFile::Impl {
  std::ofstream out;
  int fd = -1;
};

JournalFile::JournalFile(const std::string& path)
    : impl_(new Impl), path_(path) {
  impl_->out.open(path, std::ios::binary | std::ios::trunc);
  if (!impl_->out) {
    delete impl_;
    throw std::runtime_error("JournalFile: cannot open \"" + path +
                             "\" for writing");
  }
  impl_->fd = ::open(path.c_str(), O_WRONLY);
}

JournalFile::~JournalFile() {
  if (impl_->fd >= 0) ::close(impl_->fd);
  delete impl_;
}

std::ostream& JournalFile::stream() { return impl_->out; }

void JournalFile::sync() {
  impl_->out.flush();
  if (!impl_->out) {
    throw std::runtime_error("JournalFile: write failure on \"" + path_ +
                             "\"");
  }
  if (impl_->fd >= 0) {
    // Durability barrier: every framed record written so far survives a
    // crash-kill. Failure is not fatal (e.g. fdatasync on a pipe) — the
    // flush above already pushed the bytes to the OS.
    (void)::fdatasync(impl_->fd);
  }
}

}  // namespace pushpull::serve
