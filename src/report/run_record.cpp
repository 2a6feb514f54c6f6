#include "report/run_record.hpp"

#include <algorithm>
#include <unordered_map>

namespace feam::report {

namespace {

using support::Json;

std::optional<DeterminantKind> kind_for_key(std::string_view key) {
  if (key == "isa") return DeterminantKind::kIsa;
  if (key == "c_library") return DeterminantKind::kCLibrary;
  if (key == "mpi_stack") return DeterminantKind::kMpiStack;
  if (key == "shared_libraries") return DeterminantKind::kSharedLibraries;
  return std::nullopt;
}

}  // namespace

const char* determinant_key(DeterminantKind kind) {
  return determinant_slug(kind);  // one vocabulary: records match provenance
}

std::string RunRecord::blocking_determinant() const {
  if (!has_prediction || ready) return "";
  for (const auto& d : determinants) {
    if (d.evaluated && !d.compatible) return d.key;
  }
  return "?";
}

std::uint64_t RunRecord::span_duration_ns(std::string_view name) const {
  for (const auto& span : spans) {
    if (span.name == name) return span.duration_ns;
  }
  return 0;
}

support::Json RunRecord::to_json() const {
  Json out;
  out.set("schema", schema);
  out.set("command", command);
  out.set("binary", binary);
  out.set("source_site", source_site);
  out.set("target_site", target_site);
  out.set("mode", mode);
  out.set("exit_code", exit_code);
  out.set("has_prediction", has_prediction);
  out.set("ready", ready);

  Json::Array dets;
  for (const auto& d : determinants) {
    Json det;
    det.set("key", d.key);
    det.set("evaluated", d.evaluated);
    det.set("compatible", d.compatible);
    det.set("detail", d.detail);
    dets.push_back(std::move(det));
  }
  out.set("determinants", Json(std::move(dets)));
  out.set("missing_libraries", missing_libraries);
  out.set("resolved_libraries", resolved_libraries);
  out.set("unresolved_libraries", unresolved_libraries);
  out.set("bundle_bytes", bundle_bytes);

  Json::Array span_array;
  for (const auto& span : spans) {
    Json s;
    s.set("id", span.id);
    s.set("parent_id", span.parent_id);
    s.set("name", span.name);
    s.set("start_ns", span.start_ns);
    s.set("dur_ns", span.duration_ns);
    s.set("tid", span.tid);
    // Additive: absent on untracked runs so old records stay byte-equal.
    if (span.alloc_count != 0) {
      s.set("alloc_bytes", span.alloc_bytes);
      s.set("alloc_count", span.alloc_count);
    }
    span_array.push_back(std::move(s));
  }
  out.set("spans", Json(std::move(span_array)));

  if (profile) out.set("profile", profile->to_json());
  // Additive: absent when no evidence was recorded (older builds, or runs
  // without a prediction), keeping pre-provenance records byte-equal.
  if (!provenance.empty()) out.set("provenance", provenance.to_json());

  Json counter_obj{Json::Object{}};
  for (const auto& [name, value] : counters) counter_obj.set(name, value);
  out.set("counters", std::move(counter_obj));

  Json histogram_obj{Json::Object{}};
  for (const auto& [name, snapshot] : histograms) {
    histogram_obj.set(name, snapshot.to_json());
  }
  out.set("histograms", std::move(histogram_obj));
  return out;
}

void RunRecord::append_jsonl(std::string& out) const {
  const auto text = [&](std::string_view s) {
    support::append_json_string(out, s);
  };
  const auto number = [&](double n) { support::append_json_number(out, n); };
  const auto boolean = [&](bool b) { out += b ? "true" : "false"; };

  out += "{\"binary\":";
  text(binary);
  out += ",\"bundle_bytes\":";
  number(static_cast<double>(bundle_bytes));
  out += ",\"command\":";
  text(command);
  out += ",\"counters\":{";
  const char* sep = "";
  for (const auto& [name, value] : counters) {
    out += sep;
    sep = ",";
    text(name);
    out += ':';
    number(static_cast<double>(value));
  }
  out += "},\"determinants\":[";
  sep = "";
  for (const auto& d : determinants) {
    out += sep;
    sep = ",";
    out += "{\"compatible\":";
    boolean(d.compatible);
    out += ",\"detail\":";
    text(d.detail);
    out += ",\"evaluated\":";
    boolean(d.evaluated);
    out += ",\"key\":";
    text(d.key);
    out += '}';
  }
  out += "],\"exit_code\":";
  number(exit_code);
  out += ",\"has_prediction\":";
  boolean(has_prediction);
  out += ",\"histograms\":{";
  sep = "";
  for (const auto& [name, snapshot] : histograms) {
    out += sep;
    sep = ",";
    text(name);
    out += ':';
    out += snapshot.to_json().dump();
  }
  out += "},\"missing_libraries\":";
  number(static_cast<double>(missing_libraries));
  out += ",\"mode\":";
  text(mode);
  if (profile) {
    out += ",\"profile\":";
    out += profile->to_json().dump();
  }
  if (!provenance.empty()) {
    out += ",\"provenance\":";
    provenance.append_json(out);
  }
  out += ",\"ready\":";
  boolean(ready);
  out += ",\"resolved_libraries\":";
  number(static_cast<double>(resolved_libraries));
  out += ",\"schema\":";
  text(schema);
  out += ",\"source_site\":";
  text(source_site);
  out += ",\"spans\":[";
  sep = "";
  for (const auto& span : spans) {
    out += sep;
    sep = ",";
    out += '{';
    if (span.alloc_count != 0) {
      out += "\"alloc_bytes\":";
      number(static_cast<double>(span.alloc_bytes));
      out += ",\"alloc_count\":";
      number(static_cast<double>(span.alloc_count));
      out += ',';
    }
    out += "\"dur_ns\":";
    number(static_cast<double>(span.duration_ns));
    out += ",\"id\":";
    number(static_cast<double>(span.id));
    out += ",\"name\":";
    text(span.name);
    out += ",\"parent_id\":";
    number(static_cast<double>(span.parent_id));
    out += ",\"start_ns\":";
    number(static_cast<double>(span.start_ns));
    out += ",\"tid\":";
    number(span.tid);
    out += '}';
  }
  out += "],\"target_site\":";
  text(target_site);
  out += ",\"unresolved_libraries\":";
  number(static_cast<double>(unresolved_libraries));
  out += "}\n";
}

std::optional<RunRecord> RunRecord::from_json(const support::Json& j) {
  if (!j.is_object()) return std::nullopt;
  if (j.get_string("schema") != kRunRecordSchema) return std::nullopt;
  RunRecord r;
  r.command = j.get_string("command");
  r.binary = j.get_string("binary");
  r.source_site = j.get_string("source_site");
  r.target_site = j.get_string("target_site");
  r.mode = j.get_string("mode");
  r.exit_code = static_cast<int>(j.get_int("exit_code"));
  r.has_prediction = j.get_bool("has_prediction");
  r.ready = j.get_bool("ready");

  if (j["determinants"].is_array()) {
    for (const auto& det : j["determinants"].as_array()) {
      DeterminantVerdict v;
      v.key = det.get_string("key");
      if (!kind_for_key(v.key)) return std::nullopt;
      v.evaluated = det.get_bool("evaluated");
      v.compatible = det.get_bool("compatible");
      v.detail = det.get_string("detail");
      r.determinants.push_back(std::move(v));
    }
  }
  r.missing_libraries =
      static_cast<std::uint64_t>(j.get_int("missing_libraries"));
  r.resolved_libraries =
      static_cast<std::uint64_t>(j.get_int("resolved_libraries"));
  r.unresolved_libraries =
      static_cast<std::uint64_t>(j.get_int("unresolved_libraries"));
  r.bundle_bytes = static_cast<std::uint64_t>(j.get_int("bundle_bytes"));

  if (j["spans"].is_array()) {
    for (const auto& s : j["spans"].as_array()) {
      SpanSummary span;
      span.id = static_cast<std::uint64_t>(s.get_int("id"));
      span.parent_id = static_cast<std::uint64_t>(s.get_int("parent_id"));
      span.name = s.get_string("name");
      span.start_ns = static_cast<std::uint64_t>(s.get_int("start_ns"));
      span.duration_ns = static_cast<std::uint64_t>(s.get_int("dur_ns"));
      span.tid = static_cast<int>(s.get_int("tid"));
      span.alloc_bytes = static_cast<std::uint64_t>(s.get_int("alloc_bytes"));
      span.alloc_count = static_cast<std::uint64_t>(s.get_int("alloc_count"));
      if (span.name.empty()) return std::nullopt;
      r.spans.push_back(std::move(span));
    }
  }
  if (j["profile"].is_object()) {
    auto profile = obs::Profile::from_json(j["profile"]);
    if (!profile) return std::nullopt;
    r.profile = std::move(*profile);
  }
  if (j["provenance"].is_object()) {
    auto provenance = obs::EvidenceSet::from_json(j["provenance"]);
    if (!provenance) return std::nullopt;
    r.provenance = std::move(*provenance);
  }
  if (j["counters"].is_object()) {
    for (const auto& [name, value] : j["counters"].as_object()) {
      if (!value.is_number()) return std::nullopt;
      r.counters[name] = static_cast<std::uint64_t>(value.as_number());
    }
  }
  if (j["histograms"].is_object()) {
    for (const auto& [name, value] : j["histograms"].as_object()) {
      auto snapshot = obs::HistogramSnapshot::from_json(value);
      if (!snapshot) return std::nullopt;
      r.histograms[name] = *snapshot;
    }
  }
  return r;
}

std::vector<std::string> RunRecord::validate() const {
  std::vector<std::string> issues;
  if (schema != kRunRecordSchema) issues.push_back("unknown schema: " + schema);
  if (command.empty()) issues.push_back("command is empty");
  if (has_prediction && determinants.empty()) {
    issues.push_back("prediction present but no determinant verdicts");
  }

  std::unordered_map<std::uint64_t, const SpanSummary*> by_id;
  for (const auto& span : spans) {
    if (span.id == 0) issues.push_back("span '" + span.name + "' has id 0");
    by_id[span.id] = &span;
  }
  std::unordered_map<std::uint64_t, std::uint64_t> child_duration;
  for (const auto& span : spans) {
    if (span.parent_id != 0 && !by_id.count(span.parent_id)) {
      issues.push_back("span '" + span.name + "' has unknown parent " +
                       std::to_string(span.parent_id));
      continue;
    }
    child_duration[span.parent_id] += span.duration_ns;
  }
  // On a monotonic clock a parent span covers all its direct children, so
  // the parent's duration bounds the children's sum.
  for (const auto& span : spans) {
    const auto it = child_duration.find(span.id);
    if (it != child_duration.end() && it->second > span.duration_ns) {
      issues.push_back("span '" + span.name + "' duration " +
                       std::to_string(span.duration_ns) +
                       "ns is less than its children's " +
                       std::to_string(it->second) + "ns");
    }
  }
  for (const auto& [name, snapshot] : histograms) {
    if (!snapshot.empty() && snapshot.min() > snapshot.max) {
      issues.push_back("histogram '" + name + "' has min > max");
    }
  }
  for (auto& issue : provenance.validate()) {
    issues.push_back("provenance: " + issue);
  }
  if (profile) {
    if (profile->span_count != spans.size()) {
      issues.push_back("profile covers " +
                       std::to_string(profile->span_count) +
                       " spans but the record has " +
                       std::to_string(spans.size()));
    }
    // Self times partition each thread's busy time (see obs/profile.hpp).
    for (const auto& thread : profile->threads) {
      if (thread.self_ns != thread.busy_ns) {
        issues.push_back("profile thread " + std::to_string(thread.tid) +
                         " self " + std::to_string(thread.self_ns) +
                         "ns != busy " + std::to_string(thread.busy_ns) +
                         "ns");
      }
    }
  }
  return issues;
}

RunRecord assemble_run_record(const RunContext& context,
                              const std::vector<obs::SpanRecord>& spans,
                              const obs::Registry& registry, int exit_code) {
  RunRecord r;
  r.command = context.command;
  r.binary = context.binary;
  r.source_site = context.source_site;
  r.target_site = context.target_site;
  r.mode = context.mode;
  r.bundle_bytes = context.bundle_bytes;
  r.exit_code = exit_code;

  if (context.prediction) {
    r.has_prediction = true;
    r.ready = context.prediction->ready;
    for (const auto& d : context.prediction->determinants) {
      r.determinants.push_back({determinant_key(d.kind), d.evaluated,
                                d.compatible, d.detail});
    }
    r.missing_libraries = context.prediction->missing_libraries.size();
    r.resolved_libraries = context.prediction->resolved_libraries.size();
    r.unresolved_libraries = context.prediction->unresolved_libraries.size();
    r.provenance = context.prediction->provenance;
  }

  r.spans.reserve(spans.size());
  for (const auto& span : spans) {
    r.spans.push_back({span.id, span.parent_id, span.name, span.start_ns,
                       span.duration_ns(), span.tid, span.alloc_bytes,
                       span.alloc_count});
  }
  std::sort(r.spans.begin(), r.spans.end(),
            [](const SpanSummary& a, const SpanSummary& b) {
              return a.start_ns < b.start_ns;
            });
  if (!spans.empty()) r.profile = obs::build_profile(spans);
  r.counters = registry.counter_values();
  r.histograms = registry.histogram_snapshots();
  return r;
}

std::vector<obs::ProfileSpan> to_profile_spans(const RunRecord& record) {
  std::vector<obs::ProfileSpan> spans;
  spans.reserve(record.spans.size());
  for (const auto& span : record.spans) {
    spans.push_back({span.id, span.parent_id, span.name, span.start_ns,
                     span.start_ns + span.duration_ns, span.tid,
                     span.alloc_bytes, span.alloc_count});
  }
  return spans;
}

}  // namespace feam::report
