#include "report/aggregate.hpp"

#include <algorithm>
#include <cstdio>

#include "support/strings.hpp"
#include "support/table.hpp"

namespace feam::report {

namespace {

// Nanoseconds rendered for humans: ns below 10µs, µs below 10ms, else ms.
std::string format_ns(double ns) {
  char buf[32];
  if (ns < 10'000.0) {
    std::snprintf(buf, sizeof buf, "%.0fns", ns);
  } else if (ns < 10'000'000.0) {
    std::snprintf(buf, sizeof buf, "%.1fus", ns / 1'000.0);
  } else {
    std::snprintf(buf, sizeof buf, "%.1fms", ns / 1'000'000.0);
  }
  return buf;
}

}  // namespace

void fold_record(Aggregate& out, const RunRecord& record) {
  for (const auto& [name, value] : record.counters) {
    out.counters[name] += value;
  }
  for (const auto& [name, snapshot] : record.histograms) {
    out.histograms[name].merge(snapshot);
  }
  if (!record.spans.empty()) {
    out.profile.merge(obs::build_profile(to_profile_spans(record)));
    ++out.profiled_records;
  }
  if (!record.provenance.empty()) {
    ++out.provenance_records;
    out.evidence_dropped += record.provenance.dropped();
    // Items arrive sorted by stage first, so each stage's run is one
    // roll-up lookup.
    const std::string* stage = nullptr;
    std::uint64_t run = 0;
    record.provenance.for_each_item([&](const obs::Evidence& e) {
      ++out.evidence_items;
      if (stage != nullptr && *stage != e.stage) {
        out.evidence_by_stage[*stage] += run;
        run = 0;
      }
      stage = &e.stage;
      ++run;
    });
    if (stage != nullptr) out.evidence_by_stage[*stage] += run;
  }
  if (!record.has_prediction) return;
  ++out.prediction_runs;
  if (record.ready) ++out.ready_runs;
  for (const auto& det : record.determinants) {
    if (det.evaluated && !det.compatible) {
      ++out.determinant_failures[det.key];
    }
  }
  if (record.binary.empty() || record.target_site.empty()) return;
  out.sites.insert(record.target_site);
  MatrixCell& cell = out.matrix[record.binary][record.target_site];
  if (cell.runs > 0 && cell.ready != record.ready) {
    out.conflicts.push_back(record.binary + " @ " + record.target_site +
                            ": ready disagrees across records");
  }
  cell.ready = record.ready;
  cell.blocking_determinant = record.blocking_determinant();
  cell.detail.clear();
  for (const auto& det : record.determinants) {
    if (det.evaluated && !det.compatible) {
      cell.detail = det.detail;
      break;
    }
  }
  cell.resolved_libraries = record.resolved_libraries;
  ++cell.runs;
}

Aggregate aggregate_records(std::vector<RunRecord> records) {
  Aggregate out;
  out.records = std::move(records);
  for (const auto& record : out.records) fold_record(out, record);
  return out;
}

void ingest_event_jsonl(Aggregate& aggregate, std::string_view text) {
  for (const auto& line : support::split(std::string(text), '\n')) {
    if (support::trim(line).empty()) continue;
    const auto parsed = support::Json::parse(line);
    if (!parsed || !parsed->is_object()) {
      ++aggregate.events.malformed_lines;
      continue;
    }
    ++aggregate.events.total;
    ++aggregate.events.by_level[parsed->get_string("level", "?")];
    ++aggregate.events.by_name[parsed->get_string("name", "?")];
  }
}

std::map<std::string, double> flatten_metrics(const Aggregate& aggregate) {
  std::map<std::string, double> out;
  out["matrix.records"] = static_cast<double>(aggregate.records.size());
  out["matrix.prediction_runs"] =
      static_cast<double>(aggregate.prediction_runs);
  out["matrix.ready"] = static_cast<double>(aggregate.ready_runs);
  out["matrix.not_ready"] =
      static_cast<double>(aggregate.prediction_runs - aggregate.ready_runs);
  out["matrix.binaries"] = static_cast<double>(aggregate.matrix.size());
  out["matrix.sites"] = static_cast<double>(aggregate.sites.size());
  out["matrix.conflicts"] = static_cast<double>(aggregate.conflicts.size());
  for (const auto& [key, count] : aggregate.determinant_failures) {
    out["determinant." + key + ".failures"] = static_cast<double>(count);
  }
  for (const auto& [name, value] : aggregate.counters) {
    out["counter." + name] = static_cast<double>(value);
  }
  for (const auto& [name, h] : aggregate.histograms) {
    const std::string prefix = "hist." + name + ".";
    out[prefix + "count"] = static_cast<double>(h.count);
    out[prefix + "mean"] = h.mean();
    out[prefix + "p50"] = static_cast<double>(h.percentile(0.50));
    out[prefix + "p90"] = static_cast<double>(h.percentile(0.90));
    out[prefix + "p99"] = static_cast<double>(h.percentile(0.99));
    out[prefix + "max"] = static_cast<double>(h.max);
  }
  out["profile.records"] = static_cast<double>(aggregate.profiled_records);
  out["profile.spans"] = static_cast<double>(aggregate.profile.span_count);
  out["profile.wall_ns"] = static_cast<double>(aggregate.profile.wall_ns);
  out["profile.critical_path_ns"] =
      static_cast<double>(aggregate.profile.critical_path_ns());
  out["events.total"] = static_cast<double>(aggregate.events.total);
  out["events.malformed"] =
      static_cast<double>(aggregate.events.malformed_lines);
  out["provenance.records"] =
      static_cast<double>(aggregate.provenance_records);
  out["provenance.items"] = static_cast<double>(aggregate.evidence_items);
  out["provenance.dropped"] = static_cast<double>(aggregate.evidence_dropped);
  for (const auto& [stage, count] : aggregate.evidence_by_stage) {
    out["provenance.stage." + stage] = static_cast<double>(count);
  }
  return out;
}

std::string render_readiness_matrix(const Aggregate& aggregate) {
  std::vector<std::string> header = {"Binary"};
  header.insert(header.end(), aggregate.sites.begin(), aggregate.sites.end());
  support::TextTable table(header);
  for (const auto& [binary, row] : aggregate.matrix) {
    std::vector<std::string> cells = {binary};
    for (const auto& site : aggregate.sites) {
      const auto it = row.find(site);
      if (it == row.end()) {
        cells.push_back("-");
      } else if (it->second.ready) {
        cells.push_back(it->second.resolved_libraries > 0
                            ? "READY+" +
                                  std::to_string(it->second.resolved_libraries)
                            : "READY");
      } else {
        cells.push_back(it->second.blocking_determinant);
      }
    }
    table.add_row(std::move(cells));
  }
  std::string out = "Readiness matrix (READY+n = ready after resolving n "
                    "library copies;\nblocked cells name the failing "
                    "determinant):\n";
  out += table.render();
  if (!aggregate.conflicts.empty()) {
    out += "CONFLICTS:\n";
    for (const auto& c : aggregate.conflicts) out += "  " + c + "\n";
  }
  return out;
}

std::string render_latency_table(const Aggregate& aggregate) {
  support::TextTable table(
      {"Histogram", "Count", "Mean", "p50", "p90", "p99", "Max"});
  for (const auto& [name, h] : aggregate.histograms) {
    if (h.empty()) continue;
    const bool ns = support::ends_with(name, "_ns");
    const auto value = [&](double v) {
      return ns ? format_ns(v) : std::to_string(static_cast<std::uint64_t>(v));
    };
    table.add_row({name, std::to_string(h.count), value(h.mean()),
                   value(static_cast<double>(h.percentile(0.50))),
                   value(static_cast<double>(h.percentile(0.90))),
                   value(static_cast<double>(h.percentile(0.99))),
                   value(static_cast<double>(h.max))});
  }
  return "Merged latency summaries (" +
         std::to_string(aggregate.records.size()) + " run records):\n" +
         table.render();
}

std::string render_counter_table(const Aggregate& aggregate) {
  support::TextTable table({"Counter", "Total"});
  for (const auto& [name, value] : aggregate.counters) {
    table.add_row({name, std::to_string(value)});
  }
  return "Counter roll-up:\n" + table.render();
}

std::string render_report_text(const Aggregate& aggregate) {
  std::string out = render_readiness_matrix(aggregate);
  out += "\n";
  char line[160];
  std::snprintf(line, sizeof line,
                "%zu records, %zu predictions: %zu READY, %zu not ready\n",
                aggregate.records.size(), aggregate.prediction_runs,
                aggregate.ready_runs,
                aggregate.prediction_runs - aggregate.ready_runs);
  out += line;
  if (!aggregate.determinant_failures.empty()) {
    out += "Failure attribution:";
    for (const auto& [key, count] : aggregate.determinant_failures) {
      out += " " + key + "=" + std::to_string(count);
    }
    out += "\n";
  }
  if (aggregate.provenance_records > 0) {
    std::snprintf(line, sizeof line,
                  "Verdict provenance: %zu of %zu records carry evidence "
                  "(%llu items, %llu dropped)",
                  aggregate.provenance_records, aggregate.records.size(),
                  static_cast<unsigned long long>(aggregate.evidence_items),
                  static_cast<unsigned long long>(
                      aggregate.evidence_dropped));
    out += line;
    for (const auto& [stage, count] : aggregate.evidence_by_stage) {
      out += " " + stage + "=" + std::to_string(count);
    }
    out += "\n";
  }
  if (aggregate.events.total > 0 || aggregate.events.malformed_lines > 0) {
    std::snprintf(line, sizeof line,
                  "Event logs: %llu events (%llu malformed lines)",
                  static_cast<unsigned long long>(aggregate.events.total),
                  static_cast<unsigned long long>(
                      aggregate.events.malformed_lines));
    out += line;
    for (const auto& [level, count] : aggregate.events.by_level) {
      out += " " + level + "=" + std::to_string(count);
    }
    out += "\n";
  }
  out += "\n" + render_latency_table(aggregate);
  out += "\n" + render_counter_table(aggregate);
  if (aggregate.profiled_records > 0) {
    out += "\nProfile (" + std::to_string(aggregate.profiled_records) +
           " records with spans; wall is summed across records, the "
           "critical path is the longest single record's):\n";
    out += aggregate.profile.render_table();
  }
  return out;
}

}  // namespace feam::report
