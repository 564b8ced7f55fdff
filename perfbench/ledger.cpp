#include "ledger.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "support/trace.hpp"

namespace perfbench {
namespace {

struct Event {
  std::string name;
  std::uint64_t start = 0;  ///< microseconds on the process trace timeline
  std::uint64_t dur = 0;
  std::uint64_t arg = 0;
  int tid = 0;

  [[nodiscard]] std::uint64_t end() const { return start + dur; }
};

/// Every buffered span, drained through the trace module's export: its
/// Chrome-trace JSON, which writes one event per line.
std::vector<Event> drain_events() {
  std::ostringstream json;
  rrl::trace::write_chrome_trace(json);
  std::vector<Event> events;
  std::istringstream in(json.str());
  for (std::string line; std::getline(in, line);) {
    char name[128] = {};
    unsigned long long ts = 0, dur = 0, arg = 0;
    long pid = 0;
    int tid = 0;
    if (std::sscanf(line.c_str(),
                    "{\"name\":\"%127[^\"]\",\"cat\":\"rrl\",\"ph\":\"X\","
                    "\"ts\":%llu,\"dur\":%llu,\"pid\":%ld,\"tid\":%d,"
                    "\"args\":{\"v\":%llu}}",
                    name, &ts, &dur, &pid, &tid, &arg) == 6) {
      events.push_back(Event{name, ts, dur, arg, tid});
    }
  }
  return events;
}

/// A stretch of one thread's timeline during which `event` is that
/// thread's innermost open span.
struct Segment {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::size_t event = 0;
};

double seconds(std::uint64_t us) { return 1e-6 * static_cast<double>(us); }

/// The src/ module a span reports for.
const char* layer_of(const std::string& span) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"markov.model_load", "markov"},
      {"study.read_spec", "study"},
      {"study.plan", "study"},
      {"study.execute", "study"},
      {"study.reduce", "study"},
      {"study.flush", "study"},
      {"slice.execute", "study"},
      {"solver.compile", "study"},
      {"solver.import", "study"},
      {"artifact.load", "io"},
      {"artifact.store", "io"},
      {"schema.build", "core"},
      {"scenario.solve", "core"},
      {"scenario.solve_batch", "core"},
      {"scenario.solve_rand_batch", "core"},
  };
  for (const auto& [name, layer] : kLayers) {
    if (span == name) return layer;
  }
  return "other";
}

}  // namespace

SpanTotals PhaseLedger::get(const std::string& name) const {
  const auto it = spans.find(name);
  return it == spans.end() ? SpanTotals{} : it->second;
}

PhaseLedger drain_phase_ledger(const char* phase_span) {
  std::vector<Event> events = drain_events();
  const auto phase_it =
      std::find_if(events.begin(), events.end(),
                   [&](const Event& e) { return e.name == phase_span; });
  if (phase_it == events.end()) {
    throw std::runtime_error(std::string("the trace holds no ") + phase_span +
                             " span");
  }
  const Event phase = *phase_it;
  std::erase_if(events, [&](const Event& e) {
    return e.start < phase.start || e.end() > phase.end();
  });

  // Per thread, walk the spans in start order (a parent before the children
  // it contains) and cut the timeline into innermost-span segments; a
  // span's segments sum to its self time.
  std::map<int, std::vector<std::size_t>> by_thread;
  for (std::size_t i = 0; i < events.size(); ++i) {
    by_thread[events[i].tid].push_back(i);
  }
  std::vector<double> self(events.size(), 0.0);
  std::vector<std::vector<Segment>> lanes;
  for (auto& [tid, order] : by_thread) {
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return events[a].start != events[b].start
                 ? events[a].start < events[b].start
                 : events[a].dur > events[b].dur;
    });
    std::vector<Segment> lane;
    // Open spans, innermost last, with the time their own share resumes.
    std::vector<std::pair<std::size_t, std::uint64_t>> open;
    const auto emit = [&](std::size_t e, std::uint64_t from, std::uint64_t to) {
      if (to <= from) return;
      lane.push_back(Segment{from, to, e});
      self[e] += seconds(to - from);
    };
    const auto close = [&] {
      const std::size_t e = open.back().first;
      emit(e, open.back().second, events[e].end());
      open.pop_back();
      if (!open.empty()) open.back().second = events[e].end();
    };
    for (const std::size_t i : order) {
      while (!open.empty() && events[open.back().first].end() <= events[i].start) {
        close();
      }
      if (!open.empty()) {
        emit(open.back().first, open.back().second, events[i].start);
      }
      open.emplace_back(i, events[i].start);
    }
    while (!open.empty()) close();
    lanes.push_back(std::move(lane));
  }

  // Sweep the cut points of every lane: each elementary interval is split
  // evenly over the lanes with an open span.
  std::vector<std::uint64_t> cuts;
  for (const std::vector<Segment>& lane : lanes) {
    for (const Segment& s : lane) {
      cuts.push_back(s.begin);
      cuts.push_back(s.end);
    }
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  std::vector<double> share(events.size(), 0.0);
  std::vector<std::size_t> cursor(lanes.size(), 0);
  std::vector<std::size_t> active;
  for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
    active.clear();
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      const std::vector<Segment>& lane = lanes[l];
      while (cursor[l] < lane.size() && lane[cursor[l]].end <= cuts[k]) {
        ++cursor[l];
      }
      if (cursor[l] < lane.size() && lane[cursor[l]].begin <= cuts[k]) {
        active.push_back(lane[cursor[l]].event);
      }
    }
    for (const std::size_t e : active) {
      share[e] += seconds(cuts[k + 1] - cuts[k]) /
                  static_cast<double>(active.size());
    }
  }

  PhaseLedger ledger;
  ledger.wall_s = seconds(phase.dur);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (e.name == phase.name && e.start == phase.start && e.tid == phase.tid) {
      ledger.unattributed_s += share[i];
      continue;
    }
    SpanTotals& t = ledger.spans[e.name];
    ++t.count;
    t.arg_sum += e.arg;
    t.inclusive_s += seconds(e.dur);
    t.self_s += self[i];
    t.wall_share_s += share[i];
  }
  return ledger;
}

void print_phase_ledger(std::FILE* out, const char* phase,
                        const PhaseLedger& ledger) {
  std::map<std::string, double> by_layer;
  for (const auto& [name, t] : ledger.spans) {
    by_layer[layer_of(name)] += t.wall_share_s;
  }
  double sum = ledger.unattributed_s;
  std::fprintf(out, "ledger %-5s wall %.6f s =", phase, ledger.wall_s);
  for (const auto& [layer, share] : by_layer) {
    std::fprintf(out, " %s %.6f +", layer.c_str(), share);
    sum += share;
  }
  std::fprintf(out, " unattributed_s %.6f  (sum %.6f s)\n",
               ledger.unattributed_s, sum);
  for (const auto& [name, t] : ledger.spans) {
    std::fprintf(out,
                 "  %-6s %-26s n=%-5llu wall-share %.6f s  self %.6f s  "
                 "inclusive %.6f s\n",
                 layer_of(name), name.c_str(),
                 static_cast<unsigned long long>(t.count), t.wall_share_s,
                 t.self_s, t.inclusive_s);
  }
}

}  // namespace perfbench
