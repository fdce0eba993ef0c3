#include "obs/export.hpp"

#include <charconv>
#include <stdexcept>
#include <system_error>

namespace pushpull::obs {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

void append_rep(std::string& out, std::uint64_t rep) {
  if (rep == kNoRep) return;
  out += "\"rep\":";
  append_u64(out, rep);
  out += ',';
}

}  // namespace

void append_number(std::string& out, double x) {
  char buf[48];
  const auto res = std::to_chars(buf, buf + sizeof(buf), x);
  if (res.ec != std::errc()) {
    throw std::logic_error("obs::render: to_chars failed for double");
  }
  out.append(buf, res.ptr);
}

std::string render_number(double x) {
  std::string out;
  append_number(out, x);
  return out;
}

std::string render_header(std::uint32_t categories,
                          std::size_t trace_capacity) {
  std::string out = "{\"schema\":\"obs1\",\"categories\":\"";
  out += format_categories(categories);
  out += "\",\"cap\":";
  append_u64(out, trace_capacity);
  out += "}\n";
  return out;
}

std::string render_chunk(const ObsReport& report, std::uint64_t rep) {
  std::string out;
  for (const TraceEvent& ev : report.events) {
    out += '{';
    append_rep(out, rep);
    out += "\"seq\":";
    append_u64(out, ev.seq);
    out += ",\"t\":";
    append_number(out, ev.time);
    out += ",\"cat\":\"";
    out += to_string(ev.category);
    out += "\",\"ev\":\"";
    out += ev.name;  // static literals, no escaping needed
    out += "\",\"a\":";
    append_u64(out, ev.a);
    out += ",\"b\":";
    append_u64(out, ev.b);
    out += ",\"v\":";
    append_number(out, ev.v);
    out += "}\n";
  }
  for (const auto& [name, value] : report.counters.rows()) {
    out += '{';
    append_rep(out, rep);
    out += "\"counter\":\"";
    out += name;
    out += "\",\"value\":";
    append_u64(out, value);
    out += "}\n";
  }
  for (const QuantileSummary& h : report.histograms) {
    out += '{';
    append_rep(out, rep);
    out += "\"hist\":\"";
    out += h.name;
    out += "\",\"count\":";
    append_u64(out, h.count);
    out += ",\"mean\":";
    append_number(out, h.mean);
    out += ",\"min\":";
    append_number(out, h.min);
    out += ",\"max\":";
    append_number(out, h.max);
    out += ",\"p50\":";
    append_number(out, h.p50);
    out += ",\"p90\":";
    append_number(out, h.p90);
    out += ",\"p99\":";
    append_number(out, h.p99);
    out += "}\n";
  }
  out += '{';
  append_rep(out, rep);
  out += "\"emitted\":";
  append_u64(out, report.emitted);
  out += ",\"dropped\":";
  append_u64(out, report.dropped);
  out += "}\n";
  return out;
}

}  // namespace pushpull::obs
