// Trace export: Chrome trace-event JSON, the one trace file format. It
// loads directly in Perfetto (https://ui.perfetto.dev) or chrome://tracing,
// and parse_chrome_trace reads it back byte-exactly (cord-inspect's
// input). Records with a duration become complete ("X") slices; instants
// become "i" events. pid = node, tid = qpn, so each queue pair renders as
// its own track and a WR's span chain reads top-to-bottom as post →
// syscall → policy → doorbell → DMA → wire → completion.
#pragma once

#include <cstdio>
#include <span>
#include <string>

#include "trace/trace.hpp"

namespace cord::trace {

/// Write the stream as Chrome trace-event JSON ("traceEvents" array).
void write_chrome_trace(std::FILE* f, std::span<const Record> records);

/// Same, returned as a string (tests validate it as JSON).
std::string chrome_trace_json(std::span<const Record> records);

/// Convenience: export to a file path; returns false if the file cannot
/// be opened.
bool write_chrome_trace_file(const char* path, std::span<const Record> records);

/// Inverse of write_chrome_trace for the event shapes this writer emits.
/// Timestamps/durations are recovered exactly from the fixed 6-decimal
/// microsecond encoding (1 µs-decimal == 1 ps), so the round trip is
/// byte-exact for virtual times below ~2^31 µs — far beyond any run here.
/// Events whose name is not a known Point are skipped.
std::vector<Record> parse_chrome_trace(std::string_view json);

}  // namespace cord::trace
