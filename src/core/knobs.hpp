// The NEMO_* knob table. One row per environment knob: its name, documented
// default, accepted values, one-line doc, and the single parse that writes
// the value into a core::Config field or the World's tune::TuningTable. A
// World resolves every row once, at construction:
//
//   Config::env pin  >  process environment  >  programmatic Config field
//                                               or formula table
//
// The parser, the default, `nemo-tune --knobs` and docs/TUNING.md all read
// the same row (tests/test_knobs.cpp checks the docs against it), and
// knobs.cpp is the only place in src/ that reads the process environment.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace nemo::core {
struct Config;
}
namespace nemo::tune {
struct TuningTable;
}

namespace nemo {

struct Knob {
  const char* name;  ///< Environment variable, e.g. "NEMO_NT_MIN".
  /// Documented default: a value the knob accepts (setting it changes
  /// nothing), or a description in parentheses, e.g. "(formula)", when the
  /// default depends on the host or the paper's formulas.
  const char* def;
  const char* values;  ///< Accepted vocabulary, as shown to humans.
  const char* doc;     ///< One-line meaning.
  /// Parse `v` into the World's Config or tuning table; throws
  /// std::invalid_argument naming the knob on anything outside `values`.
  /// nullptr marks a process-scoped knob: its consumer reads it through
  /// process_env(), and a World cannot pin it.
  void (*apply)(const std::string& v, core::Config& cfg,
                tune::TuningTable& t);
};

/// Every knob, sorted by name.
std::span<const Knob> knobs();

/// The row named `name`, or nullptr.
const Knob* find_knob(std::string_view name);

/// Process-environment lookup; empty values read as unset. For
/// process-scoped knobs (NEMO_TRACE_OUT) and non-knob variables: asserts
/// that a NEMO_* name is a process-scoped row.
std::optional<std::string> process_env(const char* name);

}  // namespace nemo

namespace nemo::core {

/// The knob pass a World makes at construction. Fills `cfg.topo` (detected
/// when empty) and `cfg.tuning` (tune::effective_table when unset), then
/// applies every World-scoped row whose knob is pinned in `cfg.env` or set
/// in the process environment. Idempotent. Throws std::invalid_argument on
/// a pin naming an unknown or process-scoped knob, and on any bad value.
Config resolve_config(Config cfg);

}  // namespace nemo::core
