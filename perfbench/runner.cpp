// perfbench_runner: one benchmark workload in one process.
//
//   perfbench_runner --workload W --seed S --seconds T --trace 0|1
//                    [--spans FILE]
//
// Prints one JSON object on stdout. With --trace 0 it holds the end-to-end
// figures (µs per request over the workload's timed calls, set-up seconds,
// peak RSS); with --trace 1 it runs the traced layer chain instead and holds
// the per-layer figures, writing every recorded span to --spans at exit.
// Every run checks the simulated outputs (conservation, the live ledger, the
// live→DES bridge, repeat determinism) and reports a digest of the
// simulated statistics so the caller can pin them per seed.
//
// Spans are taken from outside, around calls into the library's public
// functions; nothing inside the library is instrumented.

#include <malloc.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/result.hpp"
#include "exp/scenario.hpp"
#include "serve/journal.hpp"
#include "serve/live_server.hpp"
#include "serve/load_driver.hpp"
#include "serve/record.hpp"
#include "serve/replay.hpp"
#include "serve/serve_config.hpp"

namespace {

using namespace pushpull;
using Clock = std::chrono::steady_clock;

// --- workload definitions --------------------------------------------------

enum class Kind { kDes, kLiveRecord, kJournalReplay };

struct Workload {
  const char* name;
  Kind kind;
  std::size_t num_items;
  std::size_t cutoff;
  /// DES workloads: trace length. Live workloads: the plan covers
  /// `requests / target_qps` broadcast units, so its length is Poisson
  /// around this figure.
  std::size_t requests;
};

constexpr double kTargetQps = 5.0;  // λ' = 5, the paper's §5.1 load

constexpr Workload kWorkloads[] = {
    {"des_paper", Kind::kDes, 100, 40, 400000},
    {"des_wide", Kind::kDes, 10000, 100, 200000},
    {"live_record", Kind::kLiveRecord, 100, 40, 400000},
    {"journal_replay", Kind::kJournalReplay, 100, 40, 400000},
};

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// The paper's §5.1 setup (θ = 0.60, lengths 1..5 mean 2, three classes at
/// 3:2:1, α = 0.5, importance policy, unconstrained bandwidth) at the
/// workload's catalog size and cutoff. Both engines read it: the DES
/// through hybrid(), the live server directly.
serve::ServeConfig serve_config(const Workload& w, std::uint64_t seed) {
  serve::ServeConfig config;
  config.num_items = w.num_items;
  config.cutoff = w.cutoff;
  config.accelerated = true;
  config.target_qps = kTargetQps;
  config.duration = static_cast<double>(w.requests) / kTargetQps;
  config.seed = seed;
  config.validate();
  return config;
}

exp::Scenario scenario(const Workload& w, std::uint64_t seed) {
  exp::Scenario s;
  s.num_items = w.num_items;
  s.num_requests = w.requests;
  s.arrival_rate = kTargetQps;
  s.seed = seed;
  return s;
}

// --- host measurements -----------------------------------------------------

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A "VmRSS:"/"VmHWM:" line of /proc/self/status, in kB.
long proc_status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0) return std::stol(line.substr(len));
  }
  return 0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is kB
}

/// Resets VmHWM to the current RSS so the next call's rise is its own.
/// Returns false where the kernel refuses (the rise is then measured
/// against the process's earlier peak).
bool reset_hwm() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

// --- host-speed calibration ----------------------------------------------

/// A fixed piece of work owned by the benchmark (it never changes with the
/// library) that leans on what the workloads lean on: binary-heap pushes
/// and pops over a fresh array (the DES), per-record ostringstream
/// formatting (the journal encoder), and small synced writes filling a
/// fresh memory file (the journal sink). Returns its seconds.
double calibrate() {
  const auto t0 = Clock::now();
  constexpr std::size_t kHeap = std::size_t{1} << 16;
  constexpr std::size_t kRecords = 40000;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };

  // Event-sized heap entries: a key, a sequence number and a closure-sized
  // payload, as the DES pending set holds.
  struct Entry {
    double key;
    std::uint64_t seq;
    std::array<std::uint64_t, 11> payload;
    bool operator>(const Entry& o) const { return key > o.key; }
  };
  std::vector<Entry> heap;
  heap.reserve(kHeap);
  std::uint64_t checksum = 0;
  for (std::size_t i = 0; i < kHeap; ++i) {
    heap.push_back({static_cast<double>(next() >> 11), i, {}});
    heap.back().payload[i % 11] = i;
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    checksum += heap.back().payload[heap.back().seq % 11];
    heap.pop_back();
  }

  std::string text;
  for (std::size_t i = 0; i < kRecords; ++i) {
    std::ostringstream record;
    record << "{\"t\":" << static_cast<double>(next() >> 11) * 0x1p-40
           << ",\"id\":" << i << ",\"item\":" << (next() % 100) << "}";
    text += record.str();
    text += '\n';
  }

  // Parse it back, as the journal loader does.
  for (std::size_t pos = text.find("\"t\":"); pos != std::string::npos;
       pos = text.find("\"t\":", pos + 1)) {
    double t = 0.0;
    std::from_chars(text.data() + pos + 4, text.data() + text.size(), t);
    checksum += static_cast<std::uint64_t>(t);
  }

  const int fd = memfd_create("perfbench-calibrate", 0);
  if (fd < 0) throw std::runtime_error("memfd_create failed");
  constexpr std::size_t kChunk = 4096;
  for (std::size_t off = 0; off + kChunk <= text.size(); off += kChunk) {
    if (write(fd, text.data() + off, kChunk) != static_cast<ssize_t>(kChunk)) {
      ::close(fd);
      throw std::runtime_error("calibration write failed");
    }
    (void)fdatasync(fd);
  }
  ::close(fd);
  volatile std::uint64_t sink = checksum;
  (void)sink;
  return seconds_since(t0);
}

/// The calibration's time on the reference host (a quiet 4-core x86-64
/// VM). Timings are reported at that host's speed.
constexpr double kReferenceCalibrationS = 0.055;

/// Rescales host timings to the reference speed. Shared machines drift in
/// speed by tens of percent over seconds; the calibration runs right
/// before and right after every timed section, and the section's time is
/// scaled by the reference over the mean of the two. A change to the
/// library moves the section and not the calibration, so the ratio keeps
/// it while cancelling the host's drift.
class SpeedMeter {
 public:
  SpeedMeter() : last_(calibrate()) { samples_.push_back(last_); }

  /// `seconds` (timed since the previous calibration) at reference speed.
  double normalize(double seconds) {
    const double next = calibrate();
    const double scale = kReferenceCalibrationS / (0.5 * (last_ + next));
    last_ = next;
    samples_.push_back(next);
    return seconds * scale;
  }

  [[nodiscard]] double median_calibration_s() const {
    return median(samples_);
  }

 private:
  double last_;
  std::vector<double> samples_;
};

// --- memory-backed journal -------------------------------------------------

/// A journal file that lives only in memory: an anonymous memfd, opened by
/// the library through its /proc/self/fd path. Nothing touches a disk or a
/// shared tmpfs, and the bytes are freed when the descriptor closes.
class MemJournal {
 public:
  MemJournal() : fd_(memfd_create("perfbench-journal", 0)) {
    if (fd_ < 0) {
      throw std::runtime_error(
          "no memory-backed storage: memfd_create failed (" +
          std::string(std::strerror(errno)) +
          "); the journal workloads keep journals in memory only");
    }
    path_ = "/proc/self/fd/" + std::to_string(fd_);
  }
  ~MemJournal() { ::close(fd_); }
  MemJournal(const MemJournal&) = delete;
  MemJournal& operator=(const MemJournal&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::uint64_t bytes() const {
    struct stat st {};
    if (fstat(fd_, &st) != 0) throw std::runtime_error("fstat journal");
    return static_cast<std::uint64_t>(st.st_size);
  }
  void clear() const {
    if (ftruncate(fd_, 0) != 0) throw std::runtime_error("truncate journal");
  }

 private:
  int fd_;
  std::string path_;
};

// --- output checks ---------------------------------------------------------

/// Exact (bit-pattern) rendering of every simulated statistic of a class.
void render_class(std::ostringstream& out, const metrics::ClassStats& s) {
  const auto w = [&out](const metrics::Welford& m) {
    out << m.count() << ' ' << std::hexfloat << m.mean() << ' ' << m.m2()
        << ' ' << m.sum() << ' ' << m.min() << ' ' << m.max()
        << std::defaultfloat << ' ';
  };
  const auto q = [&out](const metrics::P2Quantile& p) {
    out << p.count() << ' ' << std::hexfloat << p.value() << std::defaultfloat
        << ' ';
  };
  w(s.wait);
  q(s.wait_p50);
  q(s.wait_p95);
  q(s.wait_p99);
  w(s.gap);
  q(s.gap_p99);
  out << s.arrived << ' ' << s.served << ' ' << s.served_push << ' '
      << s.served_pull << ' ' << s.blocked << ' ' << s.abandoned << ' '
      << s.corrupted << ' ' << s.retries << ' ' << s.shed << ' ' << s.lost
      << ' ' << s.rejected << ' ' << s.stormed << '\n';
}

std::string render_result(const core::SimResult& r) {
  std::ostringstream out;
  out << std::hexfloat << r.end_time << ' ' << r.mean_pull_queue_len
      << std::defaultfloat << ' ' << r.push_transmissions << ' '
      << r.pull_transmissions << ' ' << r.blocked_transmissions << ' '
      << r.corrupted_push_transmissions << ' '
      << r.corrupted_pull_transmissions << ' ' << r.max_pull_queue_len << ' '
      << r.event_order_violations << '\n';
  for (const auto& s : r.per_class) render_class(out, s);
  return out.str();
}

std::string render_live(const serve::ServeReport& r) {
  std::ostringstream out;
  out << serve::render_serve_report(r) << std::hexfloat << r.end_time << ' '
      << r.mean_pull_queue_len << std::defaultfloat << '\n';
  for (const auto& s : r.per_class) render_class(out, s);
  return out.str();
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Per-class conservation: every arrival settles exactly once and every
/// served request has one recorded wait. Returns an empty string when the
/// classes balance and sum to `requests`.
std::string check_classes(const std::vector<metrics::ClassStats>& per_class,
                          std::uint64_t requests) {
  std::uint64_t arrived = 0;
  for (std::size_t c = 0; c < per_class.size(); ++c) {
    const metrics::ClassStats& s = per_class[c];
    arrived += s.arrived;
    if (s.outstanding() != 0 || s.served != s.served_push + s.served_pull ||
        s.wait.count() != s.served) {
      return "class " + std::to_string(c) + " does not conserve requests";
    }
  }
  if (arrived != requests) {
    return "classes saw " + std::to_string(arrived) + " arrivals, expected " +
           std::to_string(requests);
  }
  return {};
}

std::string check_des(const core::SimResult& r, std::uint64_t requests) {
  if (r.event_order_violations != 0) return "event order violated";
  return check_classes(r.per_class, requests);
}

std::string check_live(const serve::ServeReport& r, std::uint64_t requests) {
  if (!r.ledger.balanced()) return "conservation ledger unbalanced";
  if (r.ledger.injected != requests || r.arrivals != requests) {
    return "live run injected " + std::to_string(r.ledger.injected) +
           " of " + std::to_string(requests) + " planned requests";
  }
  return check_classes(r.per_class, requests);
}

/// The live→DES bridge fields, as bench/serve_qps compares them.
struct BridgeFields {
  double end_time = 0.0;
  std::uint64_t push_transmissions = 0;
  std::uint64_t pull_transmissions = 0;
  double mean_pull_queue_len = 0.0;
  std::uint64_t max_pull_queue_len = 0;
  std::uint64_t num_classes = 0;
  static constexpr std::size_t kMaxClasses = 8;
  std::uint64_t arrived[kMaxClasses] = {};
  std::uint64_t served[kMaxClasses] = {};
  std::uint64_t wait_count[kMaxClasses] = {};
  double wait_mean[kMaxClasses] = {};
};

BridgeFields bridge_fields(const serve::ServeReport& live) {
  BridgeFields f;
  f.end_time = live.end_time;
  f.push_transmissions = live.push_transmissions;
  f.pull_transmissions = live.pull_transmissions;
  f.mean_pull_queue_len = live.mean_pull_queue_len;
  f.max_pull_queue_len = live.max_pull_queue_len;
  f.num_classes = std::min(live.per_class.size(), BridgeFields::kMaxClasses);
  for (std::size_t c = 0; c < f.num_classes; ++c) {
    f.arrived[c] = live.per_class[c].arrived;
    f.served[c] = live.per_class[c].served;
    f.wait_count[c] = live.per_class[c].wait.count();
    f.wait_mean[c] = live.per_class[c].wait.mean();
  }
  return f;
}

/// bench/serve_qps's bridge_matches rule: replay rep 0 must reproduce the
/// live run's transmissions, queue statistics and per-class counts and
/// mean waits exactly.
bool bridge_matches(const BridgeFields& live, const core::SimResult& r) {
  if (live.end_time != r.end_time ||
      live.push_transmissions != r.push_transmissions ||
      live.pull_transmissions != r.pull_transmissions ||
      live.mean_pull_queue_len != r.mean_pull_queue_len ||
      live.max_pull_queue_len != r.max_pull_queue_len ||
      live.num_classes != r.per_class.size()) {
    return false;
  }
  for (std::size_t c = 0; c < live.num_classes; ++c) {
    const auto& s = r.per_class[c];
    if (live.arrived[c] != s.arrived || live.served[c] != s.served ||
        live.wait_mean[c] != s.wait.mean() ||
        live.wait_count[c] != s.wait.count()) {
      return false;
    }
  }
  return true;
}

/// Tallies the timed calls: each call's requests count as attempted, and a
/// call whose outputs fail a check counts all of them as failed. Every call
/// must also reproduce the first call's digest.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::optional<std::uint64_t> digest;
  std::vector<std::string> errors;

  void call(std::uint64_t requests, std::string error,
            std::uint64_t call_digest) {
    attempted += requests;
    if (!digest) digest = call_digest;
    if (error.empty() && call_digest != *digest) {
      error = "output differs from the first call's";
    }
    if (!error.empty()) {
      failed += requests;
      if (errors.size() < 4) errors.push_back(std::move(error));
    }
  }
};

// --- spans -----------------------------------------------------------------

/// One outside-in span: a call into a library function, with the process's
/// RSS before it and its high-water mark after it.
struct Span {
  std::string name;
  int id = 0;
  int parent = -1;
  double start_s = 0.0;  // since the run span's start
  double end_s = 0.0;
  long rss_before_kb = 0;
  long hwm_after_kb = 0;

  [[nodiscard]] double seconds() const { return end_s - start_s; }
  [[nodiscard]] double rss_rise_mb() const {
    return static_cast<double>(std::max(0L, hwm_after_kb - rss_before_kb)) /
           1024.0;
  }
};

/// Keeps the spans of one workload run in memory; all share the run id and
/// have the run span (id 0) as parent.
class SpanLog {
 public:
  SpanLog(std::string run_id, std::string root_name)
      : run_id_(std::move(run_id)), t0_(Clock::now()) {
    spans_.push_back({std::move(root_name), 0, -1, 0.0, 0.0,
                      proc_status_kb("VmRSS:"), 0});
    hwm_reset_ = reset_hwm();
  }

  /// Runs `fn` inside a span named `name` and returns the span. Free heap
  /// is handed back and VmHWM reset first, so rss_rise_mb() is the call's
  /// own peak above its starting RSS.
  Span time(const std::string& name, const std::function<void()>& fn) {
    malloc_trim(0);
    hwm_reset_ = reset_hwm() && hwm_reset_;
    Span s;
    s.name = name;
    s.id = static_cast<int>(spans_.size());
    s.parent = 0;
    s.rss_before_kb = proc_status_kb("VmRSS:");
    s.start_s = seconds_since(t0_);
    fn();
    s.end_s = seconds_since(t0_);
    s.hwm_after_kb = proc_status_kb("VmHWM:");
    spans_.push_back(s);
    return s;
  }

  [[nodiscard]] bool hwm_reset() const noexcept { return hwm_reset_; }

  void write(const std::string& path) {
    spans_[0].end_s = seconds_since(t0_);
    spans_[0].hwm_after_kb = proc_status_kb("VmHWM:");
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    for (const Span& s : spans_) {
      out << "{\"run\":\"" << run_id_ << "\",\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
          << "\",\"start_s\":" << s.start_s << ",\"end_s\":" << s.end_s
          << ",\"rss_before_kb\":" << s.rss_before_kb
          << ",\"hwm_after_kb\":" << s.hwm_after_kb << "}\n";
    }
  }

 private:
  std::string run_id_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  bool hwm_reset_ = false;
};

// --- inputs ----------------------------------------------------------------

/// The generated input of one workload: a §5.1 trace (DES workloads) or a
/// LoadDriver plan (live workloads), with the catalog and population it was
/// drawn from. Both engines can consume it.
using Input = exp::Scenario::Built;

Input make_input(const Workload& w, const serve::ServeConfig& config) {
  if (w.kind == Kind::kDes) return scenario(w, config.seed).build();
  catalog::Catalog cat = config.build_catalog();
  workload::ClientPopulation pop = config.build_population();
  serve::LoadDriver driver(cat, pop, config.target_qps, config.duration,
                           config.seed);
  workload::Trace plan = driver.plan();
  return {std::move(cat), std::move(pop), std::move(plan), {}};
}

const char* input_span_name(const Workload& w) {
  return w.kind == Kind::kDes ? "exp::Scenario::build" : "serve::LoadDriver";
}

/// One recorded live run: the accelerated engine over the plan, journaled
/// through a TraceRecorder into `journal`, then sealed.
serve::ServeReport record_live(const Input& in, const serve::ServeConfig& config,
                               const MemJournal& journal) {
  journal.clear();
  serve::LoadDriver driver(in.trace);
  serve::JournalFile file(journal.path());
  serve::TraceRecorder recorder(file, config);
  serve::LiveServer server(in.catalog, in.population, config);
  serve::ServeReport report = server.run_accelerated(driver, &recorder);
  recorder.finish();
  return report;
}

/// journal_replay's set-up: generates the plan and records its journal in
/// a child process, so the recording's memory never counts toward the
/// replaying process's peak. Returns the child's set-up seconds and the
/// live run's bridge fields.
struct RecordedSetup {
  double seconds = 0.0;
  BridgeFields live;
  std::uint64_t requests = 0;
};

RecordedSetup record_in_child(const Workload& w,
                              const serve::ServeConfig& config,
                              const MemJournal& journal) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::cout.flush();
  std::cerr.flush();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    int status = 1;
    try {
      RecordedSetup out;
      const auto t0 = Clock::now();
      const Input in = make_input(w, config);
      const serve::ServeReport report = record_live(in, config, journal);
      out.seconds = seconds_since(t0);
      out.requests = in.trace.size();
      const std::string error = check_live(report, out.requests);
      if (!error.empty()) throw std::runtime_error("set-up run: " + error);
      out.live = bridge_fields(report);
      if (write(fds[1], &out, sizeof out) == sizeof out) status = 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: set-up child: %s\n", e.what());
    }
    _exit(status);
  }
  ::close(fds[1]);
  RecordedSetup out;
  const ssize_t got = read(fds[0], &out, sizeof out);
  ::close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != static_cast<ssize_t>(sizeof out) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("journal set-up child failed");
  }
  return out;
}

// --- JSON output -----------------------------------------------------------

struct Metric {
  double value;
  const char* unit;
};

void print_result(const Workload& w, const Checks& checks,
                  std::uint64_t requests_per_call,
                  const std::vector<double>& samples,
                  const std::map<std::string, Metric>& metrics,
                  const std::vector<std::string>& notes) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"workload\":\"" << w.name << "\",\"requests_per_call\":"
      << requests_per_call << ",\"calls\":" << samples.size()
      << ",\"samples\":[";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    out << (i ? "," : "") << samples[i];
  }
  out << "]"
      << ",\"attempted\":" << checks.attempted
      << ",\"failed\":" << checks.failed << ",\"digest\":\"";
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, checks.digest.value_or(0));
  out << hex << "\",\"errors\":[";
  for (std::size_t i = 0; i < checks.errors.size(); ++i) {
    out << (i ? "," : "") << '"' << checks.errors[i] << '"';
  }
  out << "],\"notes\":[";
  for (std::size_t i = 0; i < notes.size(); ++i) {
    out << (i ? "," : "") << '"' << notes[i] << '"';
  }
  out << "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out << (first ? "" : ",") << '"' << name << "\":{\"value\":" << m.value
        << ",\"unit\":\"" << m.unit << "\"}";
    first = false;
  }
  out << "}}\n";
  std::cout << out.str();
}

// --- end-to-end run (--trace 0) --------------------------------------------

constexpr std::size_t kMinCalls = 3;

/// Set-up runs a fixed number of times and reports the median. The count
/// is fixed, not time-budgeted, so the allocator's state after set-up (and
/// with it peak RSS) does not depend on how fast the host was.
std::size_t setup_reps(const Workload& w) {
  return w.kind == Kind::kJournalReplay ? 5 : 15;
}

void run_end_to_end(const Workload& w, std::uint64_t seed, double seconds) {
  const serve::ServeConfig config = serve_config(w, seed);
  std::optional<MemJournal> journal;
  if (w.kind != Kind::kDes) journal.emplace();

  // Set-up, repeated; the median is the figure and the last input is kept.
  SpeedMeter speed;
  std::vector<double> setup_s;
  std::optional<Input> input;
  std::optional<RecordedSetup> recorded;
  for (std::size_t r = 0; r < setup_reps(w); ++r) {
    if (w.kind == Kind::kJournalReplay) {
      recorded = record_in_child(w, config, *journal);
      setup_s.push_back(speed.normalize(recorded->seconds));
      continue;
    }
    input.reset();
    const auto t0 = Clock::now();
    input.emplace(make_input(w, config));
    setup_s.push_back(speed.normalize(seconds_since(t0)));
  }

  const core::HybridConfig hybrid = config.hybrid();
  Checks checks;
  std::vector<double> us_per_request, wall_us_per_request;
  std::uint64_t requests = 0;
  double peak_mb = 0.0;
  const auto start = Clock::now();
  while (us_per_request.size() < kMinCalls || seconds_since(start) < seconds) {
    std::string error;
    std::uint64_t digest = 0;
    double dt = 0.0;
    if (w.kind == Kind::kDes) {
      requests = input->trace.size();
      const auto t0 = Clock::now();
      const core::SimResult result = exp::run_hybrid(*input, hybrid);
      dt = seconds_since(t0);
      error = check_des(result, requests);
      digest = fnv1a(render_result(result));
    } else if (w.kind == Kind::kLiveRecord) {
      requests = input->trace.size();
      const auto t0 = Clock::now();
      const serve::ServeReport report = record_live(*input, config, *journal);
      dt = seconds_since(t0);
      error = check_live(report, requests);
      digest = fnv1a(render_live(report));
    } else {
      requests = recorded->requests;
      const auto t0 = Clock::now();
      const serve::RecordedRun run = serve::load_trace_file(journal->path());
      const std::vector<core::SimResult> results =
          serve::replay(run, serve::ReplayOptions{1, 1});
      dt = seconds_since(t0);
      error = check_des(results.front(), requests);
      if (error.empty() && !bridge_matches(recorded->live, results.front())) {
        error = "replay rep 0 diverged from the recorded live run";
      }
      digest = fnv1a(render_result(results.front()));
    }
    const double n = static_cast<double>(requests);
    // The process's peak over set-up and one pass of the workload: later
    // repeats only add allocator drift that no single run would show.
    if (wall_us_per_request.empty()) peak_mb = peak_rss_mb();
    wall_us_per_request.push_back(dt * 1e6 / n);
    us_per_request.push_back(speed.normalize(dt) * 1e6 / n);
    checks.call(requests, std::move(error), digest);
  }

  std::ostringstream host;
  host << "host wall-clock median " << median(wall_us_per_request)
       << " us/request; median calibration " << speed.median_calibration_s()
       << " s against the reference " << kReferenceCalibrationS << " s";
  print_result(w, checks, requests, us_per_request,
               {{"us_per_request", {median(us_per_request), "us"}},
                {"setup_s", {median(setup_s), "s"}},
                {"peak_rss_mb", {peak_mb, "MB"}}},
               {host.str()});
}

// --- traced run (--trace 1) ------------------------------------------------

/// Runs every layer once over the workload's own input, each call inside a
/// span: the DES untraced and observed, the live engine without and with
/// the journal, the journal parse and the replay. The per-layer figures are
/// medians over as many passes as fit in `seconds`.
void run_traced(const Workload& w, std::uint64_t seed, double seconds,
                const std::string& spans_path) {
  const serve::ServeConfig config = serve_config(w, seed);
  const core::HybridConfig hybrid = config.hybrid();
  core::HybridConfig observed_config = hybrid;
  observed_config.obs.enabled = true;
  MemJournal journal;
  SpanLog log(std::string(w.name) + "-" + std::to_string(seed) + "-" +
                  std::to_string(getpid()),
              std::string("workload:") + w.name);

  std::vector<double> gen_s;
  std::optional<Input> input;
  for (std::size_t r = 0; r < setup_reps(w); ++r) {
    input.reset();
    gen_s.push_back(log.time(input_span_name(w), [&] {
                         input.emplace(make_input(w, config));
                       }).seconds());
  }
  const Input& in = *input;
  const std::uint64_t requests = in.trace.size();

  std::map<std::string, std::vector<double>> t;  // per-layer samples
  std::vector<double> untraced_s, traced_wall_s;
  Checks checks;
  exp::ObservedRun observed;
  serve::RecordedRun parsed;
  std::uint64_t journal_bytes = 0;
  SpeedMeter speed;
  const auto start = Clock::now();
  while (t["core.run_s"].empty() || seconds_since(start) < seconds) {
    std::string error;
    core::SimResult plain;
    const Span core = log.time("exp::run_hybrid", [&] {
      plain = exp::run_hybrid(in, hybrid);
    });
    t["core.run_s"].push_back(core.seconds());
    t["core.rss_delta_mb"].push_back(core.rss_rise_mb());
    error = check_des(plain, requests);

    t["obs.run_s"].push_back(log.time("exp::run_hybrid_observed", [&] {
                                 observed = exp::run_hybrid_observed(
                                     in, observed_config);
                               }).seconds());
    if (error.empty() &&
        render_result(observed.result) != render_result(plain)) {
      error = "observed DES run differs from the untraced one";
    }

    serve::ServeReport engine;
    t["serve.engine_s"].push_back(
        log.time("serve::LiveServer::run_accelerated", [&] {
             serve::LoadDriver driver(in.trace);
             serve::LiveServer server(in.catalog, in.population,
                                      config);
             engine = server.run_accelerated(driver, nullptr);
           }).seconds());
    if (error.empty()) error = check_live(engine, requests);

    serve::ServeReport recorded;
    t["serve.record_run_s"].push_back(
        log.time("serve::TraceRecorder+serve::LiveServer::run_accelerated",
                 [&] { recorded = record_live(in, config, journal); })
            .seconds());
    journal_bytes = journal.bytes();
    if (error.empty() && render_live(recorded) != render_live(engine)) {
      error = "recording changed the live run";
    }

    const Span parse = log.time("serve::load_trace_file", [&] {
      parsed = serve::load_trace_file(journal.path());
    });
    t["journal.parse_s"].push_back(parse.seconds());
    t["journal.parse_rss_delta_mb"].push_back(parse.rss_rise_mb());

    std::vector<core::SimResult> replayed;
    const Span rep = log.time("serve::replay", [&] {
      replayed = serve::replay(parsed, serve::ReplayOptions{1, 1});
    });
    t["replay.run_s"].push_back(rep.seconds());
    t["replay.rss_delta_mb"].push_back(rep.rss_rise_mb());
    if (error.empty() &&
        !bridge_matches(bridge_fields(recorded), replayed.front())) {
      error = "replay rep 0 diverged from the recorded live run";
    }
    if (error.empty() &&
        render_result(replayed.front()) != render_result(plain)) {
      error = "replayed DES differs from the DES over the same input";
    }

    // Benchmark-side tracing overhead: the workload's own timed call with
    // and without span bookkeeping around it.
    const std::function<void()> timed_call = [&] {
      if (w.kind == Kind::kDes) {
        (void)exp::run_hybrid(in, hybrid);
      } else if (w.kind == Kind::kLiveRecord) {
        (void)record_live(in, config, journal);
      } else {
        (void)serve::replay(serve::load_trace_file(journal.path()),
                            serve::ReplayOptions{1, 1});
      }
    };
    (void)speed.normalize(0.0);  // calibrate beside the untraced call
    auto t0 = Clock::now();
    timed_call();
    untraced_s.push_back(seconds_since(t0));
    t0 = Clock::now();
    (void)log.time("workload-call", timed_call);
    traced_wall_s.push_back(seconds_since(t0));

    // One pass = one "call" over the workload's input; the digest is the
    // workload's own primary output, as in the end-to-end run.
    const std::string primary = w.kind == Kind::kLiveRecord
                                    ? render_live(recorded)
                                    : render_result(w.kind == Kind::kDes
                                                        ? plain
                                                        : replayed.front());
    checks.call(requests, std::move(error), fnv1a(primary));
  }

  const obs::CounterSet& c = observed.obs.counters;
  const auto med = [&t](const char* k) { return median(t[k]); };
  const double n = static_cast<double>(requests);
  const double dispatched = static_cast<double>(c.des_dispatched);
  std::uint64_t served_pull = 0;
  for (const auto& s : observed.result.per_class) served_pull += s.served_pull;
  const double pull_tx =
      static_cast<double>(observed.result.pull_transmissions);
  const double records = static_cast<double>(2 + parsed.requests.size() +
                                             parsed.decisions);

  std::map<std::string, Metric> m = {
      {"workload.gen_s", {median(gen_s), "s"}},
      {"des.events_dispatched", {dispatched, "count"}},
      {"des.events_per_request", {dispatched / n, "count"}},
      {"des.cancelled_share",
       {c.des_scheduled ? static_cast<double>(c.des_cancelled) /
                              static_cast<double>(c.des_scheduled)
                        : 0.0,
        "ratio"}},
      {"des.ns_per_event",
       {dispatched > 0 ? med("core.run_s") * 1e9 / dispatched : 0.0, "ns"}},
      {"core.run_s", {med("core.run_s"), "s"}},
      {"core.rss_delta_mb", {med("core.rss_delta_mb"), "MB"}},
      {"core.pull_extractions",
       {static_cast<double>(c.queue_extracts), "count"}},
      {"core.queue_enters", {static_cast<double>(c.queue_enter), "count"}},
      {"core.queue_peak", {static_cast<double>(c.queue_peak), "count"}},
      {"core.mean_pull_queue_len",
       {observed.result.mean_pull_queue_len, "count"}},
      {"core.requests_per_extraction",
       {pull_tx > 0 ? static_cast<double>(served_pull) / pull_tx : 0.0,
        "ratio"}},
      {"serve.engine_s", {med("serve.engine_s"), "s"}},
      {"serve.record_run_s", {med("serve.record_run_s"), "s"}},
      {"journal.write_s",
       {med("serve.record_run_s") - med("serve.engine_s"), "s"}},
      {"journal.bytes_per_request",
       {static_cast<double>(journal_bytes) / n, "B"}},
      {"journal.records", {records, "count"}},
      {"journal.parse_s", {med("journal.parse_s"), "s"}},
      {"journal.parse_mb_per_s",
       {static_cast<double>(journal_bytes) / 1e6 / med("journal.parse_s"),
        "MB/s"}},
      {"journal.parse_rss_delta_mb", {med("journal.parse_rss_delta_mb"), "MB"}},
      {"replay.run_s", {med("replay.run_s"), "s"}},
      {"replay.rss_delta_mb", {med("replay.rss_delta_mb"), "MB"}},
      {"obs.overhead_ratio", {med("obs.run_s") / med("core.run_s") - 1.0,
                              "ratio"}},
      {"obs.trace_events",
       {static_cast<double>(observed.obs.emitted), "count"}},
      {"host.wall_us_per_request", {median(untraced_s) * 1e6 / n, "us"}},
      {"host.calibration_s", {speed.median_calibration_s(), "s"}},
      {"span.overhead_us_per_request",
       {(median(traced_wall_s) - median(untraced_s)) * 1e6 / n, "us"}},
  };
  std::vector<std::string> notes = {
      "journal.write_s includes the journal seal: LiveServer::run_accelerated "
      "seals inside the call, so the seal has no boundary of its own",
      "P2 quantile folding (metrics) has no public boundary; its time is "
      "inside core.run_s and serve.engine_s",
  };
  if (!log.hwm_reset()) {
    notes.push_back(
        "VmHWM could not be reset: rss_delta figures are rises above the "
        "process's earlier peak");
  }
  log.write(spans_path);
  print_result(w, checks, requests, t["core.run_s"], m, notes);
}

// --- command line ----------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  std::string spans;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = std::stoi(value);
    } else if (key == "--spans") {
      a.spans = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (a.workload.empty() || !have_seed || !(a.seconds > 0.0) ||
      (a.trace != 0 && a.trace != 1) ||
      (a.trace == 1 && a.spans.empty())) {
    throw std::invalid_argument(
        "usage: perfbench_runner --workload W --seed S --seconds T "
        "--trace 0|1 [--spans FILE]");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    const Workload& w = find_workload(a.workload);
    if (a.trace == 1) {
      run_traced(w, a.seed, a.seconds, a.spans);
    } else {
      run_end_to_end(w, a.seed, a.seconds);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << e.what() << "\n";
    return 2;
  }
}
