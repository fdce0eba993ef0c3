#include "obs/trace.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace pushpull::obs {

namespace {

/// LEB128 without the sign games: 7 payload bits per byte, high bit marks
/// continuation. Small operands (class ids, attempt counts, seq deltas of
/// 1) cost one byte. Encoders write straight into the chunk and return the
/// byte count.
std::size_t put_varint_buf(std::uint8_t* buf, std::uint64_t value) {
  std::size_t n = 0;
  while (value >= 0x80) {
    buf[n++] = static_cast<std::uint8_t>(value) | 0x80;
    value >>= 7;
  }
  buf[n++] = static_cast<std::uint8_t>(value);
  return n;
}

std::uint64_t read_varint(const std::uint8_t*& p) {
  std::uint64_t value = 0;
  int shift = 0;
  while (true) {
    const std::uint8_t byte = *p++;
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
}

/// Doubles travel as their raw bit pattern (little-endian bytes) so decode
/// reproduces the exact value, including -0.0 and NaN payloads.
std::size_t put_f64_buf(std::uint8_t* buf, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<std::uint8_t>(bits >> (8 * i));
  }
  return 8;
}

double read_f64(const std::uint8_t*& p) {
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<std::uint64_t>(*p++) << (8 * i);
  }
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

constexpr std::uint8_t kHasV = 0x01;
/// Largest encoded record: flags, 5-byte name id, time, three 10-byte
/// varints, v.
constexpr std::size_t kMaxRecordBytes = 1 + 5 + 8 + 3 * 10 + 8;

}  // namespace

std::size_t TraceSink::NameKeyHash::operator()(
    const NameKey& k) const noexcept {
  // Golden-ratio mix of the category into the pointer hash; equality does
  // the exact comparison, so this only needs to spread.
  return std::hash<const void*>{}(static_cast<const void*>(k.name)) ^
         (static_cast<std::size_t>(k.category) * 0x9E3779B97F4A7C15ULL);
}

TraceSink::TraceSink(std::size_t capacity, std::uint32_t categories)
    : capacity_(capacity),
      categories_(categories & kAllCategories),
      chunk_records_(std::clamp<std::size_t>(capacity / 16, 1, 4096)),
      // ~24 bytes is a generous per-record average; a chunk also closes
      // early when the next record might not fit.
      chunk_bytes_(chunk_records_ * 24 + kMaxRecordBytes) {
  if (capacity_ == 0) {
    throw std::logic_error("TraceSink: capacity must be positive");
  }
}

std::uint32_t TraceSink::intern(const char* name, Category category) {
  // The cache index only affects speed: ids come from insertion order, so
  // pointer values never leak into any output.
  const auto p = reinterpret_cast<std::uintptr_t>(name);
  InternSlot& slot = intern_cache_[(p >> 4 ^ p ^
                                    static_cast<std::uintptr_t>(category)) %
                                   intern_cache_.size()];
  if (slot.name == name && slot.category == category) return slot.id;
  const std::uint32_t id = intern_slow(name, category);
  slot = InternSlot{name, category, id};
  return id;
}

std::uint32_t TraceSink::intern_slow(const char* name, Category category) {
  const NameKey key{name, category};
  const auto [it, inserted] =
      name_ids_.try_emplace(key, static_cast<std::uint32_t>(names_.size()));
  if (inserted) names_.push_back(key);
  return it->second;
}

void TraceSink::append_record(double time, std::uint64_t seq,
                              std::uint32_t name_id, std::uint64_t a,
                              std::uint64_t b, double v) {
  // Layout: [flags][varint name_id][raw time][varint seq_delta][varint a]
  //         [varint b][raw v iff kHasV]. Self-delimiting, so decode parses
  //         forward without a length prefix.
  Chunk& chunk = chunks_.back();
  std::uint8_t* buf = chunk.bytes.get() + chunk.used;
  std::size_t n = 0;
  std::uint64_t vbits = 0;
  std::memcpy(&vbits, &v, sizeof(vbits));
  const std::uint8_t flags = vbits != 0 ? kHasV : 0;
  buf[n++] = flags;
  n += put_varint_buf(buf + n, name_id);
  n += put_f64_buf(buf + n, time);
  n += put_varint_buf(buf + n, seq - tail_prev_seq_);
  tail_prev_seq_ = seq;
  n += put_varint_buf(buf + n, a);
  n += put_varint_buf(buf + n, b);
  if ((flags & kHasV) != 0) n += put_f64_buf(buf + n, v);
  chunk.used += n;
  ++chunk.records;
}

void TraceSink::open_chunk() {
  while (!chunks_.empty() && held_ - chunks_.front().records >= capacity_) {
    held_ -= chunks_.front().records;
    spare_.push_back(std::move(chunks_.front().bytes));
    chunks_.pop_front();
  }
  Chunk chunk;
  if (spare_.empty()) {
    chunk.bytes = std::make_unique_for_overwrite<std::uint8_t[]>(chunk_bytes_);
  } else {
    chunk.bytes = std::move(spare_.back());
    spare_.pop_back();
  }
  chunk.prev_seq = tail_prev_seq_;
  chunks_.push_back(std::move(chunk));
}

void TraceSink::record(double time, Category category, const char* name,
                       std::uint64_t a, std::uint64_t b, double v) {
  const std::uint64_t seq = next_seq_++;
  if ((categories_ & category_bit(category)) == 0) return;
  if (chunks_.empty() || chunks_.back().records == chunk_records_ ||
      chunks_.back().used + kMaxRecordBytes > chunk_bytes_) {
    open_chunk();
  }
  append_record(time, seq, intern(name, category), a, b, v);
  ++held_;
  if (count_ == capacity_) {
    ++dropped_;
  } else {
    ++count_;
  }
}

std::vector<TraceEvent> TraceSink::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(count_);
  std::size_t skip = held_ - count_;  // dropped head of the oldest chunk
  for (const Chunk& chunk : chunks_) {
    const std::uint8_t* p = chunk.bytes.get();
    std::uint64_t prev_seq = chunk.prev_seq;
    for (std::size_t i = 0; i < chunk.records; ++i) {
      const std::uint8_t flags = *p++;
      const auto name_id = static_cast<std::uint32_t>(read_varint(p));
      TraceEvent ev;
      ev.time = read_f64(p);
      prev_seq += read_varint(p);
      ev.seq = prev_seq;
      ev.category = names_[name_id].category;
      ev.name = names_[name_id].name;
      ev.a = read_varint(p);
      ev.b = read_varint(p);
      ev.v = (flags & kHasV) != 0 ? read_f64(p) : 0.0;
      if (skip > 0) {
        --skip;
      } else {
        out.push_back(ev);
      }
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& lhs, const TraceEvent& rhs) {
                     if (lhs.time < rhs.time) return true;
                     if (rhs.time < lhs.time) return false;
                     return lhs.seq < rhs.seq;
                   });
  return out;
}

void TraceSink::clear() {
  for (Chunk& chunk : chunks_) spare_.push_back(std::move(chunk.bytes));
  chunks_.clear();
  held_ = 0;
  count_ = 0;
  tail_prev_seq_ = 0;
  next_seq_ = 0;
  dropped_ = 0;
  // The intern table survives: names are static literals and ids stay
  // valid across replications.
}

}  // namespace pushpull::obs
