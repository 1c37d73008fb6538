// Chrome/Perfetto `trace_event` JSON exporter for nemo-trace dumps.
//
// Converts a "nemo-trace/2" dump (per-rank event lists with ns timestamps,
// see trace.hpp) into the Trace Event Format chrome://tracing and
// ui.perfetto.dev load natively: one pid for the world, one tid per rank,
// begin/end records matched into complete ("X") spans, instants ("i"), and
// counter tracks ("C") from the snapshot records.
#pragma once

#include <optional>
#include <string>

#include "tune/json.hpp"

namespace nemo::trace {

/// Parse a dump file; nullopt (with `err`) when unreadable or wrong schema.
std::optional<tune::Json> load_dump(const std::string& path,
                                    std::string* err = nullptr);

/// Build the {"traceEvents": [...]} document from a parsed dump.
tune::Json perfetto_from_dump(const tune::Json& dump);

/// load_dump + perfetto_from_dump + write to `out_path`.
bool export_perfetto(const std::string& dump_path, const std::string& out_path,
                     std::string* err = nullptr);

}  // namespace nemo::trace
