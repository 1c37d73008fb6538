// Tiny command-line option parser used by benches and examples.
// Syntax: --key=value or --flag. Unknown keys are rejected so typos surface.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/common.hpp"

namespace nemo {

class Options {
 public:
  /// Parse argv; throws std::invalid_argument on malformed input.
  Options(int argc, char** argv);
  Options() = default;

  /// Declare a key so `finalize()` can reject unknown options.
  void declare(const std::string& key, const std::string& help);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& def) const;
  /// Typed getters parse with the shared parsers below, so a malformed
  /// value throws std::invalid_argument naming the option.
  [[nodiscard]] long get_int(const std::string& key, long def) const;
  [[nodiscard]] double get_double(const std::string& key, double def) const;
  /// Size values accept unit suffixes ("64KiB", "4M").
  [[nodiscard]] std::size_t get_size(const std::string& key,
                                     std::size_t def) const;
  /// Absent = false; `--key` alone = true; `--key=off` = false.
  [[nodiscard]] bool get_flag(const std::string& key) const;

  /// Verify all provided keys were declared; print help and throw otherwise.
  void finalize() const;

  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::pair<std::string, std::string>> declared_;
};

// ---------------------------------------------------------------------------
// Value parsers shared by command-line options and the NEMO_* knob table
// (core/knobs.hpp), so `--ranks=eight` and `NEMO_RING_BUFS=eight` fail the
// same way: std::invalid_argument naming `what` (the option or knob).
// ---------------------------------------------------------------------------

/// Throw std::invalid_argument "<what>: bad value '<v>' (want <want>)".
[[noreturn]] void reject_value(const std::string& what, const std::string& v,
                               const std::string& want);

/// Whole decimal integer in [lo, hi]; anything else throws.
long parse_int(const std::string& what, const std::string& v, long lo,
               long hi);

/// Finite decimal number; anything else throws.
double parse_double(const std::string& what, const std::string& v);

/// "1"/"true"/"on"/"yes" are true, "0"/"false"/"off"/"no" are false;
/// anything else throws.
bool parse_flag(const std::string& what, const std::string& v);

/// Size with unit suffixes ("64KiB", "4M"); with `allow_off`, "off" and
/// "never" parse as SIZE_MAX (callers use that to disable a threshold).
std::size_t parse_size(const std::string& what, const std::string& v,
                       bool allow_off = false);

}  // namespace nemo
