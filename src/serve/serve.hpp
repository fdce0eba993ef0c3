#pragma once

/// Live serving frontend (DESIGN §9–10): the layer that promotes the hybrid
/// scheduler from a DES-driven model to an in-process async server, plus
/// the live failure model (deadlines, retry/hedge, overload ladder,
/// crash-consistent journaling, graceful drain).
///
///   clock.hpp            serve::Clock — the fenced time source (virtual +
///                        wall backends; wall reads only in clock.cpp)
///   completion_queue.hpp bounded MPSC queue feeding server ticks
///   serve_config.hpp     one run's workload/scheduler/serving knobs plus
///                        the live failure model
///   load_driver.hpp      seeded open-loop load, planned upfront
///   journal.hpp          journal framing: sv3 CRC32C frames (written),
///                        sv2 hex-length frames (read-only), the streaming
///                        frame reader, the fsync sink
///   record.hpp           journal record codec (sv3 written, sv2
///                        read-only) + crash recovery
///   live_server.hpp      the completion-queue event loop around the
///                        HybridServer scheduling rules
///   replay.hpp           recorded trace → deterministic engine (DES or
///                        live), bit-exact
///   chaos.hpp            serve --resume / --chaos: journal recovery and
///                        the seeded kill/recover/resume/replay harness
#include "serve/chaos.hpp"             // IWYU pragma: export
#include "serve/clock.hpp"             // IWYU pragma: export
#include "serve/completion_queue.hpp"  // IWYU pragma: export
#include "serve/journal.hpp"           // IWYU pragma: export
#include "serve/live_server.hpp"       // IWYU pragma: export
#include "serve/load_driver.hpp"       // IWYU pragma: export
#include "serve/record.hpp"            // IWYU pragma: export
#include "serve/replay.hpp"            // IWYU pragma: export
#include "serve/serve_config.hpp"      // IWYU pragma: export
