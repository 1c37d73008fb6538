#include "common/options.hpp"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace nemo {

Options::Options(int argc, char** argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0)
      throw std::invalid_argument("expected --key[=value], got: " + arg);
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq == std::string::npos)
      values_[arg].assign(1, '1');  // `= "1"` trips a GCC 12 -Wrestrict bug.
    else
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
  }
}

void Options::declare(const std::string& key, const std::string& help) {
  declared_.emplace_back(key, help);
}

bool Options::has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::string Options::get(const std::string& key, const std::string& def) const {
  auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

long Options::get_int(const std::string& key, long def) const {
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  return parse_int("--" + key, it->second, LONG_MIN, LONG_MAX);
}

double Options::get_double(const std::string& key, double def) const {
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  return parse_double("--" + key, it->second);
}

std::size_t Options::get_size(const std::string& key, std::size_t def) const {
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  return parse_size("--" + key, it->second);
}

bool Options::get_flag(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return false;
  return parse_flag("--" + key, it->second);
}

void reject_value(const std::string& what, const std::string& v,
                  const std::string& want) {
  throw std::invalid_argument(what + ": bad value '" + v + "' (want " +
                              want + ")");
}

long parse_int(const std::string& what, const std::string& v, long lo,
               long hi) {
  char* end = nullptr;
  errno = 0;
  long out = std::strtol(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || errno == ERANGE)
    reject_value(what, v, "an integer");
  if (out < lo || out > hi)
    reject_value(what, v,
                 "an integer in [" + std::to_string(lo) + ", " +
                     std::to_string(hi) + "]");
  return out;
}

double parse_double(const std::string& what, const std::string& v) {
  char* end = nullptr;
  double out = std::strtod(v.c_str(), &end);
  if (v.empty() || *end != '\0' || !std::isfinite(out))
    reject_value(what, v, "a number");
  return out;
}

bool parse_flag(const std::string& what, const std::string& v) {
  if (v == "0" || v == "false" || v == "off" || v == "no") return false;
  if (v == "1" || v == "true" || v == "on" || v == "yes") return true;
  reject_value(what, v, "0/1/on/off/true/false/yes/no");
}

std::size_t parse_size(const std::string& what, const std::string& v,
                       bool allow_off) {
  if (allow_off && (v == "off" || v == "never"))
    return static_cast<std::size_t>(-1);
  try {
    return parse_size(v);
  } catch (const std::invalid_argument&) {
    reject_value(what, v,
                 allow_off ? "a size like 64KiB, or off" : "a size like 64KiB");
  }
}

void Options::finalize() const {
  bool bad = false;
  for (const auto& [k, v] : values_) {
    (void)v;
    bool known = false;
    for (const auto& [dk, dh] : declared_) {
      (void)dh;
      if (dk == k) known = true;
    }
    if (!known) {
      std::fprintf(stderr, "unknown option --%s\n", k.c_str());
      bad = true;
    }
  }
  if (bad) {
    std::fprintf(stderr, "usage: %s [options]\n", program_.c_str());
    for (const auto& [dk, dh] : declared_)
      std::fprintf(stderr, "  --%-20s %s\n", dk.c_str(), dh.c_str());
    throw std::invalid_argument("unknown options");
  }
}

}  // namespace nemo
