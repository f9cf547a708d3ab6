/**
 * @file
 * trace_summary: pretty-prints a Chrome trace-event JSON file produced by
 * obs::Tracer::export_chrome_json() (bench_fig11_latency --trace=...,
 * quickstart --trace=...).
 *
 *   $ ./tools/trace_summary [--critpath] TRACE.json
 *
 * Prints, per (subsystem, span kind): event count, total and mean span
 * duration, the longest single span, plus the set of chains (flows) the
 * file covers. Useful for a quick per-stage latency breakdown without
 * opening Perfetto; the numbers feed EXPERIMENTS.md's breakdown table.
 *
 * With --critpath the file is additionally re-ingested through the
 * critical-path profiler (critpath::analyze_chrome_json): a per-service
 * table attributing end-to-end chain latency to queue / PE-service / DMA
 * / NoC / dispatch / core time, with the dominant bottleneck named per
 * service. PROFILING.md walks through reading it.
 *
 * The parser handles the exporter's one-event-per-line layout; it is not a
 * general JSON parser.
 */

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "critpath/critpath.h"
#include "sim/time.h"
#include "stats/table.h"

namespace {

/** Value of `"key":"value"` in `line`, or "" when absent. */
std::string find_string(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return "";
  const auto start = pos + needle.size();
  const auto end = line.find('"', start);
  if (end == std::string::npos) return "";
  return line.substr(start, end - start);
}

/** Value of `"key":number` in `line`, or `fallback` when absent. */
double find_number(const std::string& line, const std::string& key,
                   double fallback = 0.0) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return fallback;
  const auto start = pos + needle.size();
  try {
    return std::stod(line.substr(start));
  } catch (...) {
    return fallback;
  }
}

struct KindStats {
  std::uint64_t count = 0;
  double total_us = 0;
  double max_us = 0;
};

}  // namespace

int main(int argc, char** argv) {
  bool critpath = false;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--critpath") {
      critpath = true;
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      path = nullptr;
      break;
    }
  }
  if (path == nullptr) {
    std::cerr << "usage: " << argv[0] << " [--critpath] TRACE.json\n";
    return 2;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return 1;
  }

  // (category, name) -> stats for complete spans; name -> count for
  // instants; distinct flow ids; overall covered time range.
  std::map<std::pair<std::string, std::string>, KindStats> spans;
  std::map<std::pair<std::string, std::string>, std::uint64_t> instants;
  std::set<std::uint64_t> flows;
  std::uint64_t flow_begins = 0, flow_ends = 0;
  double first_ts = -1, last_ts = 0;
  std::uint64_t events = 0;

  std::string line;
  while (std::getline(in, line)) {
    const std::string ph = find_string(line, "ph");
    if (ph.empty() || ph == "M") continue;
    ++events;
    const double ts = find_number(line, "ts");
    if (first_ts < 0 || ts < first_ts) first_ts = ts;
    if (ph == "X") {
      const double dur = find_number(line, "dur");
      last_ts = std::max(last_ts, ts + dur);
      KindStats& k =
          spans[{find_string(line, "cat"), find_string(line, "name")}];
      ++k.count;
      k.total_us += dur;
      k.max_us = std::max(k.max_us, dur);
    } else if (ph == "i") {
      last_ts = std::max(last_ts, ts);
      ++instants[{find_string(line, "cat"), find_string(line, "name")}];
    } else if (ph == "s" || ph == "t" || ph == "f") {
      last_ts = std::max(last_ts, ts);
      flows.insert(static_cast<std::uint64_t>(find_number(line, "id")));
      flow_begins += ph == "s";
      flow_ends += ph == "f";
    }
  }
  if (events == 0) {
    std::cerr << path << ": no trace events found\n";
    return 1;
  }

  using accelflow::stats::Table;
  std::cout << "Trace: " << path << "\n  events: " << events
            << "  chains: " << flows.size() << " (" << flow_begins
            << " begun, " << flow_ends << " completed in window)"
            << "\n  covered: " << Table::fmt(first_ts / 1e3) << " ms .. "
            << Table::fmt(last_ts / 1e3) << " ms\n\n";

  {
    Table t("Spans by subsystem and kind (sorted by total time)");
    t.set_header({"Subsystem", "Span", "Count", "Total ms", "Mean us",
                  "Max us"});
    std::vector<std::pair<std::pair<std::string, std::string>, KindStats>>
        rows(spans.begin(), spans.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.second.total_us > b.second.total_us;
    });
    for (const auto& [key, k] : rows) {
      t.add_row({key.first, key.second, std::to_string(k.count),
                 Table::fmt(k.total_us / 1e3),
                 Table::fmt(k.total_us / static_cast<double>(k.count)),
                 Table::fmt(k.max_us)});
    }
    t.print(std::cout);
  }
  if (!instants.empty()) {
    Table t("Instant events");
    t.set_header({"Subsystem", "Event", "Count"});
    for (const auto& [key, n] : instants) {
      t.add_row({key.first, key.second, std::to_string(n)});
    }
    t.print(std::cout);
  }
  // --- Critical-path attribution (--critpath) ----------------------------
  if (critpath) {
    namespace cp = accelflow::critpath;
    cp::Analyzer analyzer;
    if (cp::analyze_chrome_json(path, analyzer) < 0) {
      std::cerr << "cannot re-read " << path << "\n";
      return 1;
    }
    Table t("Per-service critical-path attribution "
            "(share of end-to-end chain latency, %)");
    t.set_header({"Service", "Chains", "Mean us", "Bottleneck", "queue", "pe",
                  "dma", "noc", "network", "dispatch", "glue", "iommu",
                  "core"});
    auto share = [](accelflow::sim::TimePs part, accelflow::sim::TimePs sum) {
      return Table::fmt(sum > 0 ? 100.0 * static_cast<double>(part) /
                                      static_cast<double>(sum)
                                : 0.0,
                        1);
    };
    auto row = [&](const cp::ServiceAttribution& s) {
      auto cat = [&](cp::Category c) {
        return share(s.by_category[static_cast<std::size_t>(c)],
                     s.total_latency);
      };
      t.add_row({s.name, std::to_string(s.chains),
                 Table::fmt(s.mean_latency_us()),
                 std::string(cp::name_of(s.dominant())),
                 cat(cp::Category::kQueue), cat(cp::Category::kPeService),
                 cat(cp::Category::kDma), cat(cp::Category::kNoc),
                 cat(cp::Category::kNetwork), cat(cp::Category::kDispatch),
                 cat(cp::Category::kGlue), cat(cp::Category::kTranslation),
                 cat(cp::Category::kCore)});
    };
    for (const cp::ServiceAttribution& s : analyzer.services()) row(s);
    cp::ServiceAttribution total = analyzer.total();
    total.name = "(all)";
    row(total);
    t.print(std::cout);
    const cp::AnalyzerStats& st = analyzer.stats();
    std::cout << "  chains attributed: " << st.chains << "  incomplete: "
              << st.incomplete << "  begin lost to ring: " << st.unbegun
              << "\n";
    if (!analyzer.violations().empty()) {
      std::cerr << "conservation violations:\n";
      for (const std::string& v : analyzer.violations()) {
        std::cerr << "  " << v << "\n";
      }
      return 1;
    }
  }
  return 0;
}
