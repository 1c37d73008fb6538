#include "spans.hpp"

#include <cstdio>
#include <mutex>

namespace nemobench {

namespace {

struct NameTable {
  std::mutex mu;  // Guards names.
  std::vector<std::string> names;
};

NameTable& table() {
  static NameTable t;
  return t;
}

}  // namespace

std::uint16_t span_name(const char* name) {
  NameTable& t = table();
  std::lock_guard<std::mutex> lk(t.mu);
  for (std::size_t i = 0; i < t.names.size(); ++i)
    if (t.names[i] == name) return static_cast<std::uint16_t>(i);
  t.names.emplace_back(name);
  return static_cast<std::uint16_t>(t.names.size() - 1);
}

const std::string& span_name_of(std::uint16_t id) {
  NameTable& t = table();
  std::lock_guard<std::mutex> lk(t.mu);
  return t.names.at(id);
}

std::vector<double> span_durations(const std::vector<const SpanLog*>& logs,
                                   std::uint16_t name) {
  std::vector<double> out;
  for (const SpanLog* log : logs)
    for (const SpanRec& r : log->records())
      if (r.name == name && r.end_ns >= r.start_ns)
        out.push_back(static_cast<double>(r.end_ns - r.start_ns));
  return out;
}

std::map<std::string, SelfTime> self_times(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::uint16_t, SelfTime> by_id;
  for (const SpanLog* log : logs) {
    const std::vector<SpanRec>& recs = log->records();
    std::vector<double> child_ns(recs.size(), 0.0);
    for (const SpanRec& r : recs)
      if (r.parent != UINT32_MAX)
        child_ns[r.parent] += static_cast<double>(r.end_ns - r.start_ns);
    for (std::size_t i = 0; i < recs.size(); ++i) {
      SelfTime& s = by_id[recs[i].name];
      double d = static_cast<double>(recs[i].end_ns - recs[i].start_ns);
      s.calls++;
      s.total_ns += d;
      s.self_ns += d - child_ns[i];
    }
  }
  std::map<std::string, SelfTime> out;
  for (const auto& [id, s] : by_id) out[span_name_of(id)] = s;
  return out;
}

bool write_spans_csv(const std::string& path,
                     const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread,op,name,parent,start_ns,end_ns\n");
  for (const SpanLog* log : logs)
    for (const SpanRec& r : log->records())
      std::fprintf(f, "%u,%llu,%s,%lld,%llu,%llu\n",
                   static_cast<unsigned>(r.thread),
                   static_cast<unsigned long long>(r.op),
                   span_name_of(r.name).c_str(),
                   r.parent == UINT32_MAX ? -1LL
                                          : static_cast<long long>(r.parent),
                   static_cast<unsigned long long>(r.start_ns),
                   static_cast<unsigned long long>(r.end_ns));
  return std::fclose(f) == 0;
}

}  // namespace nemobench
