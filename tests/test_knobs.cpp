// The NEMO_* knob table (src/core/knobs.cpp): the docs match it row for
// row, every concrete documented default is a no-op, out-of-range values
// throw std::invalid_argument naming the knob, and a Config::env pin beats
// the process environment, which beats the programmatic Config field.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>

#include "core/comm.hpp"
#include "core/knobs.hpp"
#include "tune/tuning.hpp"

namespace nemo::core {
namespace {

/// A hermetic base Config: synthetic topology, formula table.
Config base_config() {
  Config cfg;
  cfg.nranks = 4;
  cfg.topo = xeon_e5345();
  cfg.tuning = tune::effective_table(cfg.topo);
  return cfg;
}

/// `cfg` resolved, with its pins dropped so results compare by value.
Config resolved(Config cfg) {
  Config out = resolve_config(std::move(cfg));
  out.env.clear();
  return out;
}

bool ambient(const char* knob) {
  const char* v = std::getenv(knob);
  return v != nullptr && *v != '\0';
}

TEST(KnobTable, SortedUniqueRows) {
  std::set<std::string> seen;
  std::string prev;
  for (const Knob& k : knobs()) {
    EXPECT_TRUE(seen.insert(k.name).second) << k.name;
    EXPECT_LT(prev, k.name) << "table not sorted at " << k.name;
    prev = k.name;
    EXPECT_EQ(find_knob(k.name), &k);
    EXPECT_NE(std::string(k.values), "");
    EXPECT_NE(std::string(k.doc), "");
  }
  EXPECT_EQ(knobs().size(), 17u);
  EXPECT_EQ(find_knob("NEMO_NOPE"), nullptr);
}

TEST(KnobTable, DocsRowsMatchTheTableByNameAndDefault) {
  std::ifstream f(std::string(NEMO_SOURCE_DIR) + "/docs/TUNING.md");
  ASSERT_TRUE(f) << "docs/TUNING.md not found";
  // | `NEMO_X` | default | values | meaning |
  std::map<std::string, std::string> documented;
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("| `NEMO_", 0) != 0) continue;
    std::size_t name_end = line.find("` | ", 3);
    std::size_t def_end = line.find(" |", name_end + 4);
    ASSERT_NE(def_end, std::string::npos) << line;
    std::string name = line.substr(3, name_end - 3);
    std::string def = line.substr(name_end + 4, def_end - name_end - 4);
    if (def.size() >= 2 && def.front() == '`' && def.back() == '`')
      def = def.substr(1, def.size() - 2);
    EXPECT_TRUE(documented.emplace(name, def).second)
        << name << " documented twice";
  }
  for (const auto& [name, def] : documented) {
    const Knob* k = find_knob(name);
    if (k == nullptr) {
      ADD_FAILURE() << name << " is documented but not in the knob table";
      continue;
    }
    EXPECT_EQ(def, k->def) << name << ": docs default vs table default";
  }
  for (const Knob& k : knobs())
    EXPECT_EQ(documented.count(k.name), 1u) << k.name << " is undocumented";
}

TEST(KnobTable, ConcreteDefaultsResolveLikeUnset) {
  // Setting a knob to its documented default must change nothing; a
  // default in parentheses describes a host- or formula-derived value. A knob
  // already set in the ambient environment has no "unset" baseline here.
  const Config unset = resolved(base_config());
  int checked = 0;
  for (const Knob& k : knobs()) {
    if (k.def[0] == '(' || k.apply == nullptr || ambient(k.name)) continue;
    Config cfg = base_config();
    cfg.env[k.name] = k.def;
    Config pinned;
    ASSERT_NO_THROW(pinned = resolved(cfg)) << k.name << "=" << k.def;
    EXPECT_TRUE(pinned == unset) << k.name << "=" << k.def;
    EXPECT_TRUE(*pinned.tuning == *unset.tuning) << k.name << "=" << k.def;
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

struct BadValue {
  const char* knob;
  const char* value;
};

void PrintTo(const BadValue& b, std::ostream* os) {
  *os << b.knob << "=" << b.value;
}

class KnobRejects : public ::testing::TestWithParam<BadValue> {};

TEST_P(KnobRejects, OutOfRangeValueThrowsNamingTheKnob) {
  Config cfg = base_config();
  cfg.env[GetParam().knob] = GetParam().value;
  try {
    (void)resolve_config(cfg);
    ADD_FAILURE() << "accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(GetParam().knob), std::string::npos)
        << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Knobs, KnobRejects,
    ::testing::Values(BadValue{"NEMO_FASTBOX_SLOTS", "0"},
                      BadValue{"NEMO_FASTBOX_SLOTS", "65"},
                      BadValue{"NEMO_RING_BUFS", "0"},
                      BadValue{"NEMO_RING_BUFS", "2000"},
                      BadValue{"NEMO_TRACE", "bogus"},
                      BadValue{"NEMO_TRACE_RING_SLOTS", "1"},
                      BadValue{"NEMO_RING_BUF_BYTES", "2GiB"},
                      BadValue{"NEMO_PEER_TIMEOUT_MS", "0"},
                      BadValue{"NEMO_CMA", "maybe"},
                      BadValue{"NEMO_COLL", "bogus"},
                      BadValue{"NEMO_LMT", "tcp"},
                      BadValue{"NEMO_LMT", "cma"},
                      BadValue{"NEMO_SIMD", "sse9"},
                      BadValue{"NEMO_NT_MIN", "lots"},
                      BadValue{"NEMO_WORLD_MODE", "prcoesses"}),
    [](const ::testing::TestParamInfo<BadValue>& info) {
      std::string name = std::string(info.param.knob).substr(5) + "_" +
                         info.param.value;
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

TEST(KnobPins, UnknownAndProcessScopedPinsThrow) {
  Config cfg = base_config();
  cfg.env["NEMO_RNG_BUFS"] = "8";  // Typo.
  EXPECT_THROW((void)resolve_config(cfg), std::invalid_argument);
  cfg = base_config();
  cfg.env["NEMO_TRACE_OUT"] = "t.json";  // Read at process exit.
  EXPECT_THROW((void)resolve_config(cfg), std::invalid_argument);
  // Retired knobs: their values live only in Config / TuningTable fields.
  for (const char* retired :
       {"NEMO_COLL_SLOT_BYTES", "NEMO_DMA_MIN", "NEMO_PACK_NT_MIN"}) {
    cfg = base_config();
    cfg.env[retired] = "4096";
    EXPECT_THROW((void)resolve_config(cfg), std::invalid_argument) << retired;
  }
}

TEST(KnobPins, PinBeatsEnvironmentBeatsProgrammaticField) {
  // Environment parsing itself: the only place this suite sets a World
  // knob in the process environment.
  if (ambient("NEMO_RING_BUFS"))
    GTEST_SKIP() << "NEMO_RING_BUFS set in the environment";
  Config cfg = base_config();
  cfg.ring_bufs = 3;
  EXPECT_EQ(resolved(cfg).ring_bufs, 3u);
  ::setenv("NEMO_RING_BUFS", "6", 1);
  Config from_env = resolved(cfg);
  cfg.env["NEMO_RING_BUFS"] = "9";
  Config from_pin = resolved(cfg);
  ::unsetenv("NEMO_RING_BUFS");
  EXPECT_EQ(from_env.ring_bufs, 6u);
  EXPECT_EQ(from_pin.ring_bufs, 9u);
}

TEST(KnobPins, ResolutionIsIdempotent) {
  Config cfg = base_config();
  cfg.env = {{"NEMO_NT_MIN", "1MiB"},
             {"NEMO_RING_BUF_BYTES", "33KiB"}, {"NEMO_CMA", "off"},
             {"NEMO_PEER_TIMEOUT_MS", "1234"},
             {"NEMO_TRACE_RING_SLOTS", "100"}};
  Config once = resolve_config(cfg);
  EXPECT_TRUE(resolve_config(once) == once);
  EXPECT_FALSE(once.cma_enabled);
  EXPECT_EQ(once.peer_timeout_ms, 1234u);
}

TEST(ConfigFields, CollSlotBytesRoundUpToACacheLine) {
  Config cfg;
  cfg.nranks = 2;
  cfg.coll_slot_bytes = 100;
  bool ok = run(cfg, [](Comm& comm) {
    EXPECT_EQ(comm.engine().coll_view().slot_bytes(), 128u);
  });
  EXPECT_TRUE(ok);
}

TEST(KnobPins, WorldAppliesTraceRingSlots) {
  Config cfg;
  cfg.nranks = 2;
  cfg.env = {{"NEMO_TRACE", "rings"}, {"NEMO_TRACE_RING_SLOTS", "8"}};
  trace::Mode prev = trace::mode();
  bool ok = run(cfg, [](Comm& comm) {
    ASSERT_NE(comm.engine().tracer().ring(), nullptr);
    EXPECT_EQ(comm.engine().tracer().ring()->capacity(), 8u);
  });
  trace::set_mode(prev);
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace nemo::core
