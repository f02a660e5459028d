#include "src/clair/serialize.h"

#include <cstdlib>

#include "src/support/strings.h"

namespace clair {

using support::Error;

std::string SaveRecords(const std::vector<AppRecord>& records) {
  std::string out;
  for (const auto& record : records) {
    out += "[app]\n";
    out += "name=" + record.name + "\n";
    if (record.source_digest != 0) {
      // Content digest of the extraction sources; checkpoint resume uses it
      // to detect version drift. Omitted at zero so records built without a
      // digest round-trip byte-identically.
      out += support::Format("source=%016llx\n",
                             static_cast<unsigned long long>(record.source_digest));
    }
    const auto& labels = record.labels;
    out += support::Format("label.total=%d\n", labels.total);
    out += support::Format("label.critical=%d\n", labels.critical);
    out += support::Format("label.high_or_worse=%d\n", labels.high_or_worse);
    out += support::Format("label.network_vector=%d\n", labels.network_vector);
    out += support::Format("label.low_complexity=%d\n", labels.low_complexity);
    out += support::Format("label.no_privileges=%d\n", labels.no_privileges);
    out += support::Format("label.high_confidentiality=%d\n", labels.high_confidentiality);
    out += support::Format("label.first=%d\n", labels.first);
    out += support::Format("label.last=%d\n", labels.last);
    out += support::Format("label.max_score=%.17g\n", labels.max_score);
    out += support::Format("label.mean_score=%.17g\n", labels.mean_score);
    for (const auto& [cwe, count] : labels.by_cwe) {
      out += support::Format("label.cwe.%d=%d\n", cwe, count);
    }
    for (const auto& [name, value] : record.features.values()) {
      out += support::Format("feature.%s=%.17g\n", name.c_str(), value);
    }
  }
  return out;
}

support::Result<std::vector<AppRecord>> LoadRecords(std::string_view text) {
  std::vector<AppRecord> records;
  AppRecord* current = nullptr;
  int line_no = 0;
  for (const auto& raw_line : support::Split(text, '\n')) {
    ++line_no;
    const auto line = support::Trim(raw_line);
    if (line.empty()) {
      continue;
    }
    if (line == "[app]") {
      records.emplace_back();
      current = &records.back();
      continue;
    }
    if (current == nullptr) {
      return Error(Error::Code::kParseError,
                   support::Format("line %d: field before [app] header", line_no));
    }
    const size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return Error(Error::Code::kParseError,
                   support::Format("line %d: expected key=value", line_no));
    }
    const std::string key(line.substr(0, eq));
    const std::string value(line.substr(eq + 1));
    auto parse_int = [&](int& out) -> bool {
      const auto parsed = support::ParseInt(value);
      if (!parsed) {
        return false;
      }
      out = static_cast<int>(*parsed);
      return true;
    };
    bool ok = true;
    if (key == "name") {
      current->name = value;
      current->labels.app = value;
    } else if (key == "source") {
      char* end = nullptr;
      current->source_digest = std::strtoull(value.c_str(), &end, 16);
      ok = !value.empty() && end != nullptr && *end == '\0';
    } else if (key == "label.total") {
      ok = parse_int(current->labels.total);
    } else if (key == "label.critical") {
      ok = parse_int(current->labels.critical);
    } else if (key == "label.high_or_worse") {
      ok = parse_int(current->labels.high_or_worse);
    } else if (key == "label.network_vector") {
      ok = parse_int(current->labels.network_vector);
    } else if (key == "label.low_complexity") {
      ok = parse_int(current->labels.low_complexity);
    } else if (key == "label.no_privileges") {
      ok = parse_int(current->labels.no_privileges);
    } else if (key == "label.high_confidentiality") {
      ok = parse_int(current->labels.high_confidentiality);
    } else if (key == "label.first") {
      int v = 0;
      ok = parse_int(v);
      if (ok) {
        current->labels.first = v;
      }
    } else if (key == "label.last") {
      int v = 0;
      ok = parse_int(v);
      if (ok) {
        current->labels.last = v;
      }
    } else if (key == "label.max_score") {
      const auto parsed = support::ParseDouble(value);
      ok = parsed.has_value();
      if (ok) {
        current->labels.max_score = *parsed;
      }
    } else if (key == "label.mean_score") {
      const auto parsed = support::ParseDouble(value);
      ok = parsed.has_value();
      if (ok) {
        current->labels.mean_score = *parsed;
      }
    } else if (support::StartsWith(key, "label.cwe.")) {
      const auto cwe = support::ParseInt(key.substr(10));
      const auto count = support::ParseInt(value);
      ok = cwe.has_value() && count.has_value();
      if (ok) {
        current->labels.by_cwe[static_cast<int>(*cwe)] = static_cast<int>(*count);
      }
    } else if (support::StartsWith(key, "feature.")) {
      const auto parsed = support::ParseDouble(value);
      ok = parsed.has_value();
      if (ok) {
        current->features.Set(key.substr(8), *parsed);
      }
    } else {
      return Error(Error::Code::kParseError,
                   support::Format("line %d: unknown key '%s'", line_no, key.c_str()));
    }
    if (!ok) {
      return Error(Error::Code::kParseError,
                   support::Format("line %d: bad value for '%s'", line_no, key.c_str()));
    }
  }
  return records;
}

std::string SaveCheckpointRecord(const AppRecord& record) {
  const std::string block = SaveRecords({record});
  return block + support::Format(
                     "crc=%016llx\n",
                     static_cast<unsigned long long>(Fnv1a64(block)));
}

std::vector<AppRecord> LoadCheckpoint(std::string_view text,
                                      CheckpointLoadStats* stats) {
  CheckpointLoadStats local;
  std::vector<AppRecord> records;
  std::string block;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t eol = text.find('\n', pos);
    // A line without a terminating newline is a mid-write truncation: the
    // block it belongs to is incomplete by definition, so stop here.
    if (eol == std::string_view::npos) {
      block += text.substr(pos);
      pos = text.size();
      break;
    }
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (support::StartsWith(line, "crc=")) {
      const std::string digits(line.substr(4));
      char* end = nullptr;
      const unsigned long long crc = std::strtoull(digits.c_str(), &end, 16);
      const bool crc_ok = end != nullptr && *end == '\0' && !digits.empty() &&
                          crc == Fnv1a64(block);
      bool parsed_ok = false;
      if (crc_ok) {
        auto parsed = LoadRecords(block);
        if (parsed.ok() && parsed.value().size() == 1) {
          records.push_back(std::move(parsed.value().front()));
          ++local.complete_records;
          parsed_ok = true;
        }
      }
      if (!parsed_ok) {
        ++local.dropped_blocks;
      }
      block.clear();
    } else {
      // "[app]" starts a new block; pending lines without a crc are an
      // orphaned partial write (e.g. a kill mid-line followed by appends
      // from the resumed sweep) — drop them, keep the new block intact.
      if (line == "[app]" && !block.empty()) {
        ++local.dropped_blocks;
        block.clear();
      }
      block += line;
      block += '\n';
    }
  }
  if (!block.empty()) {
    ++local.dropped_blocks;  // Truncated tail without its crc line.
  }
  if (stats != nullptr) {
    *stats = local;
  }
  return records;
}

}  // namespace clair
