#pragma once

#include <cstdint>
#include <string>

#include "obs/observer.hpp"

namespace pushpull::obs {

/// Sentinel for single-run exports: the "rep" key is omitted entirely.
inline constexpr std::uint64_t kNoRep = ~0ull;

/// Shortest round-trip decimal rendering of a double via std::to_chars —
/// locale-independent and deterministic across runs, which is what lets
/// the golden trace fixtures byte-compare.
[[nodiscard]] std::string render_number(double x);

/// Appends render_number(x) to `out` without a temporary string — for
/// encoders that reuse one buffer per record.
void append_number(std::string& out, double x);

/// File header line: {"schema":"obs1","categories":"all","cap":65536}
[[nodiscard]] std::string render_header(std::uint32_t categories,
                                        std::size_t trace_capacity);

/// One run's complete JSONL chunk: events in (time, seq) order, then the
/// full counter set in fixed order, then histogram summaries, then a
/// {"emitted":..,"dropped":..} footer. `rep` tags every line when not
/// kNoRep, so replication chunks can be concatenated job-index-ordered
/// into one stream that is bit-identical across --jobs.
[[nodiscard]] std::string render_chunk(const ObsReport& report,
                                       std::uint64_t rep = kNoRep);

}  // namespace pushpull::obs
