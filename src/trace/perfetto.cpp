#include "trace/perfetto.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "trace/trace.hpp"

namespace nemo::trace {

namespace {

// The world shares one pid; sim replays (ranks -2, -3, ...) get stable
// synthetic tids.
constexpr int kPid = 0;
constexpr int kSimTid = 1000001;  // sim rank 0

int tid_of(int rank) { return rank < 0 ? kSimTid - 2 - rank : rank; }

std::string thread_label(int rank) {
  if (rank < 0) return "sim rank " + std::to_string(-rank - 2);
  return "rank " + std::to_string(rank);
}

std::string category_of(const std::string& name) {
  auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

/// Per-event argument labels, so Perfetto shows "peer: 3, bytes: 262144"
/// instead of anonymous a0/a1 slots.
std::pair<const char*, const char*> arg_names(std::uint16_t id) {
  switch (id) {
    case kFastboxPut:
    case kFastboxPop:
    case kRingPush:
    case kRingPop:
    case kLmtActivate:
    case kLmtComplete:
      return {"peer", "bytes"};
    case kCollDeposit:
    case kCollFold:
    case kCollRelease:
      return {"chunk", "bytes"};
    case kCollOp: return {"op", "bytes"};
    case kFastboxFallback:
    case kRingStall:
      return {"peer", ""};
    case kEpochStall: return {"waiting_on", ""};
    case kFence: return {"dead_rank", ""};
    case kPeerDeath: return {"rank", "site"};
    default: return {"a0", "a1"};
  }
}

struct PendingSpan {
  std::uint16_t id;
  double ts_us;
  std::uint64_t a0, a1;
};

tune::Json make_args(std::uint16_t id, std::uint64_t a0, std::uint64_t a1) {
  tune::Json args = tune::Json::object();
  auto [n0, n1] = arg_names(id);
  if (id == kCollOp)
    args.set(n0, std::string(coll_op_name(a0)));
  else
    args.set(n0, a0);
  if (n1[0] != '\0') args.set(n1, a1);
  return args;
}

}  // namespace

std::optional<tune::Json> load_dump(const std::string& path,
                                    std::string* err) {
  std::ifstream in(path);
  if (!in) {
    if (err) *err = "cannot read " + path;
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  auto doc = tune::Json::parse(ss.str(), err);
  if (!doc) return std::nullopt;
  if ((*doc)["schema"].as_string() != "nemo-trace/2") {
    if (err) *err = path + ": not a nemo-trace/2 dump";
    return std::nullopt;
  }
  return doc;
}

tune::Json perfetto_from_dump(const tune::Json& dump) {
  struct Sortable {
    int tid;
    double ts;
    tune::Json ev;
  };
  std::vector<Sortable> events;

  std::vector<int> tids_seen;
  for (const tune::Json& rank_dump : dump["ranks"].items()) {
    int rank = static_cast<int>(rank_dump["rank"].as_double());
    int tid = tid_of(rank);
    tids_seen.push_back(tid);

    std::vector<PendingSpan> stack;
    for (const tune::Json& rec : rank_dump["events"].items()) {
      const auto& f = rec.items();
      if (f.size() < 5) continue;
      double ts_us = static_cast<double>(f[0].as_uint()) / 1000.0;
      auto id = static_cast<std::uint16_t>(f[1].as_uint());
      auto ph = static_cast<std::uint16_t>(f[2].as_uint());
      std::uint64_t a0 = f[3].as_uint(), a1 = f[4].as_uint();
      if (id == 0 || id >= kEventCount || ph > kCounter) continue;

      if (ph == kBegin) {
        stack.push_back({id, ts_us, a0, a1});
        continue;
      }
      if (ph == kEnd) {
        // A wrapped ring can orphan an end whose begin was overwritten;
        // drop those instead of mis-nesting.
        while (!stack.empty() && stack.back().id != id) stack.pop_back();
        if (stack.empty()) continue;
        PendingSpan b = stack.back();
        stack.pop_back();
        tune::Json ev = tune::Json::object();
        ev.set("name", std::string(event_name(id)));
        ev.set("cat", category_of(event_name(id)));
        ev.set("ph", std::string("X"));
        ev.set("ts", b.ts_us);
        ev.set("dur", ts_us > b.ts_us ? ts_us - b.ts_us : 0.0);
        ev.set("pid", static_cast<std::int64_t>(kPid));
        ev.set("tid", static_cast<std::int64_t>(tid));
        ev.set("args", make_args(id, b.a0, b.a1));
        events.push_back({tid, b.ts_us, std::move(ev)});
        continue;
      }
      if (ph == kCounter || id == kSnapshot) {
        tune::Json ev = tune::Json::object();
        ev.set("name", std::string(gauge_name(a0)));
        ev.set("ph", std::string("C"));
        ev.set("ts", ts_us);
        ev.set("pid", static_cast<std::int64_t>(kPid));
        // One counter track per rank: suffix the series name via args.
        tune::Json args = tune::Json::object();
        args.set("rank " + std::to_string(rank), a1);
        ev.set("args", std::move(args));
        events.push_back({tid, ts_us, std::move(ev)});
        continue;
      }
      // Instant.
      tune::Json ev = tune::Json::object();
      ev.set("name", std::string(event_name(id)));
      ev.set("cat", category_of(event_name(id)));
      ev.set("ph", std::string("i"));
      ev.set("s", std::string("t"));
      ev.set("ts", ts_us);
      ev.set("pid", static_cast<std::int64_t>(kPid));
      ev.set("tid", static_cast<std::int64_t>(tid));
      ev.set("args", make_args(id, a0, a1));
      events.push_back({tid, ts_us, std::move(ev)});
    }
    // Spans still open when the ring was flushed (should not happen in a
    // clean run) are dropped rather than emitted unmatched.
  }

  std::stable_sort(events.begin(), events.end(),
                   [](const Sortable& a, const Sortable& b) {
                     return a.tid != b.tid ? a.tid < b.tid : a.ts < b.ts;
                   });

  tune::Json out = tune::Json::object();
  tune::Json list = tune::Json::array();
  // Name the process and threads first (metadata events).
  {
    tune::Json m = tune::Json::object();
    m.set("name", std::string("process_name"));
    m.set("ph", std::string("M"));
    m.set("pid", static_cast<std::int64_t>(kPid));
    tune::Json args = tune::Json::object();
    args.set("name", std::string("nemo world"));
    m.set("args", std::move(args));
    list.push_back(std::move(m));
  }
  std::sort(tids_seen.begin(), tids_seen.end());
  tids_seen.erase(std::unique(tids_seen.begin(), tids_seen.end()),
                  tids_seen.end());
  for (const tune::Json& rank_dump : dump["ranks"].items()) {
    int rank = static_cast<int>(rank_dump["rank"].as_double());
    int tid = tid_of(rank);
    auto it = std::find(tids_seen.begin(), tids_seen.end(), tid);
    if (it == tids_seen.end()) continue;
    tids_seen.erase(it);  // one metadata record per tid
    tune::Json m = tune::Json::object();
    m.set("name", std::string("thread_name"));
    m.set("ph", std::string("M"));
    m.set("pid", static_cast<std::int64_t>(kPid));
    m.set("tid", static_cast<std::int64_t>(tid));
    tune::Json args = tune::Json::object();
    args.set("name", thread_label(rank));
    m.set("args", std::move(args));
    list.push_back(std::move(m));
  }
  for (Sortable& s : events) list.push_back(std::move(s.ev));
  out.set("displayTimeUnit", std::string("ns"));
  out.set("traceEvents", std::move(list));
  return out;
}

bool export_perfetto(const std::string& dump_path, const std::string& out_path,
                     std::string* err) {
  auto dump = load_dump(dump_path, err);
  if (!dump) return false;
  tune::Json doc = perfetto_from_dump(*dump);
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    if (err) *err = "cannot open " + out_path;
    return false;
  }
  std::string text = doc.dump(1);
  bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok && err) *err = "short write to " + out_path;
  return ok;
}

}  // namespace nemo::trace
