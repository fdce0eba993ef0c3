#pragma once

// Shared by the serve suites: the robust base configuration, the 24-case
// serve-golden matrix, a journaled accelerated run, and readers that take a
// complete journal apart frame by frame and record by record.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "serve/serve.hpp"

namespace pushpull::testing_util {

inline serve::ServeConfig robust_base() {
  serve::ServeConfig c;
  c.num_items = 40;
  c.num_classes = 3;
  c.cutoff = 12;
  c.duration = 10.0;
  c.target_qps = 6.0;
  c.seed = 20050614;
  c.accelerated = true;
  return c;
}

struct JournaledRun {
  serve::ServeReport report;
  std::string trace;
};

/// One accelerated run of `c`, journaled into a string.
inline JournaledRun run_journaled(const serve::ServeConfig& c) {
  const auto cat = c.build_catalog();
  const auto pop = c.build_population();
  serve::LoadDriver driver(cat, pop, c.target_qps, c.duration, c.seed);
  std::ostringstream out;
  JournaledRun run;
  {
    serve::TraceRecorder recorder(out, c);
    serve::LiveServer server(cat, pop, c);
    run.report = server.run_accelerated(driver, &recorder);
  }
  run.trace = out.str();
  return run;
}

struct MatrixCase {
  std::string name;
  serve::ServeConfig config;
};

/// The serve-golden matrix: every live mechanism on its own, plus the
/// chaos profile's cocktail, each across pure-pull, hybrid and pure-push
/// cutoffs (the catalog has 40 items).
inline std::vector<MatrixCase> serve_matrix() {
  std::vector<MatrixCase> cases;
  for (const std::size_t cutoff : {std::size_t{0}, std::size_t{12},
                                   std::size_t{40}}) {
    serve::ServeConfig base = robust_base();
    base.cutoff = cutoff;
    base.duration = 30.0;
    base.target_qps = 8.0;
    const std::string at = "@" + std::to_string(cutoff);

    cases.push_back({"plain" + at, base});

    serve::ServeConfig deadline = base;
    deadline.mean_deadline = 5.0;
    cases.push_back({"deadline" + at, deadline});

    serve::ServeConfig scaled = deadline;
    scaled.deadline_scale = {2.0, 1.0, 0.5};
    scaled.deadline_spike_factor = 0.3;
    scaled.deadline_spike_start = 6.0;
    scaled.deadline_spike_duration = 5.0;
    cases.push_back({"scaled_spike" + at, scaled});

    serve::ServeConfig fault = base;
    fault.mean_deadline = 9.0;
    fault.fault.enabled = true;
    fault.fault.channel.p_good_to_bad = 0.3;
    fault.fault.channel.p_bad_to_good = 0.3;
    fault.fault.channel.corrupt_good = 0.05;
    fault.fault.channel.corrupt_bad = 0.8;
    fault.fault.retry.max_retries = 2;
    fault.fault.retry.backoff_base = 0.5;
    fault.fault.queue_capacity = 12;
    fault.fault.shed_policy = fault::ShedPolicy::kDropLowestPriority;
    cases.push_back({"fault" + at, fault});

    serve::ServeConfig ladder = base;
    ladder.target_qps = 12.0;
    ladder.mean_deadline = 12.0;
    ladder.overload.enabled = true;
    ladder.overload.eval_interval = 1.0;
    ladder.overload.capacity_ref = 8;
    cases.push_back({"ladder" + at, ladder});

    serve::ServeConfig hedge = base;
    hedge.mean_deadline = 8.0;
    hedge.hedge_after = 1.5;
    cases.push_back({"hedge" + at, hedge});

    serve::ServeConfig drain = base;
    drain.mean_deadline = 6.0;
    drain.drain_after = 8.0;
    cases.push_back({"drain" + at, drain});

    cases.push_back({"chaos" + at, serve::chaos_profile(base)});
  }
  return cases;
}

/// Every payload of a complete journal (either format), in order.
inline std::vector<std::string> journal_payloads(const std::string& journal) {
  std::istringstream in(journal);
  serve::FrameReader reader(in);
  std::vector<std::string> payloads;
  for (std::string_view payload; reader.next(payload);) {
    payloads.emplace_back(payload);
  }
  EXPECT_FALSE(reader.truncated());
  EXPECT_EQ(reader.bytes_consumed(), journal.size());
  return payloads;
}

/// The binary body records of a complete sv3 journal, in order (the JSON
/// header and footer are skipped).
inline std::vector<serve::JournalRecord> journal_records(
    const std::string& journal) {
  serve::RecordDecoder decoder;
  std::vector<serve::JournalRecord> records;
  for (const std::string& payload : journal_payloads(journal)) {
    if (!payload.empty() && payload.front() == '{') continue;
    records.push_back(decoder.decode(payload));
  }
  return records;
}

/// A complete sv3 journal from its payloads: the magic, then one frame each.
inline std::string sv3_journal(const std::vector<std::string>& payloads) {
  std::string bytes(serve::kJournalMagic);
  for (const std::string& payload : payloads) {
    bytes += serve::frame_record(payload);
  }
  return bytes;
}

}  // namespace pushpull::testing_util
