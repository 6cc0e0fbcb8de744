#include "bddfc/testing/corpus.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace bddfc {

namespace {

/// Strips leading/trailing whitespace.
std::string Trim(std::string_view v) {
  size_t b = v.find_first_not_of(" \t\r\n");
  if (b == std::string_view::npos) return "";
  size_t e = v.find_last_not_of(" \t\r\n");
  return std::string(v.substr(b, e - b + 1));
}

/// The note is one header line: newlines collapse to "; ".
std::string OneLine(std::string_view v) {
  std::string out;
  for (char c : v) {
    if (c == '\n' || c == '\r') {
      if (!out.empty() && out.back() != ' ') out += "; ";
    } else {
      out += c;
    }
  }
  return Trim(out);
}

}  // namespace

std::string CorpusEntryToText(const CorpusEntry& entry) {
  std::string out = "% bddfc-corpus\n";
  out += "% oracle: " + entry.oracle + "\n";
  if (!entry.family.empty()) out += "% family: " + entry.family + "\n";
  if (entry.seed != 0) {
    out += "% seed: " + std::to_string(entry.seed) + "\n";
  }
  if (!entry.fault.empty()) out += "% fault: " + entry.fault + "\n";
  if (entry.chaos != 0) {
    out += "% chaos: " + std::to_string(entry.chaos) + "\n";
    if (entry.chaos_seed != 0) {
      out += "% chaos-seed: " + std::to_string(entry.chaos_seed) + "\n";
    }
  }
  if (!entry.note.empty()) out += "% note: " + OneLine(entry.note) + "\n";
  out += entry.program;
  if (!entry.program.empty() && entry.program.back() != '\n') out += "\n";
  return out;
}

Result<CorpusEntry> ParseCorpusText(std::string_view text) {
  CorpusEntry entry;
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    std::string trimmed = Trim(line);
    if (trimmed.empty()) continue;
    if (trimmed[0] != '%' && trimmed[0] != '#') {
      // First program statement: everything from here on is the program.
      break;
    }
    std::string_view body = std::string_view(trimmed).substr(1);
    size_t colon = body.find(':');
    if (colon == std::string_view::npos) continue;
    std::string key = Trim(body.substr(0, colon));
    std::string value = Trim(body.substr(colon + 1));
    if (key == "oracle") {
      entry.oracle = value;
    } else if (key == "family") {
      entry.family = value;
    } else if (key == "seed") {
      entry.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "fault") {
      entry.fault = value;
    } else if (key == "chaos") {
      entry.chaos = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "chaos-seed") {
      entry.chaos_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "note") {
      entry.note = value;
    }
  }
  if (entry.oracle.empty()) {
    return Status::InvalidArgument("corpus file has no '% oracle:' header");
  }
  // Comments are transparent to the parser: keep the whole text as the
  // program so line numbers in parse errors match the file.
  entry.program = std::string(text);
  return entry;
}

Result<CorpusEntry> LoadCorpusFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  std::stringstream buf;
  buf << in.rdbuf();
  return ParseCorpusText(buf.str());
}

std::vector<std::string> ListCorpusFiles(const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (e.is_regular_file() && e.path().extension() == ".dlg") {
      out.push_back(e.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

OracleOutcome ReplayCorpusEntry(const CorpusEntry& entry,
                                const OracleConfig& config) {
  const Oracle* oracle = FindOracle(entry.oracle);
  if (oracle == nullptr) {
    return OracleOutcome::Fail("unknown oracle '" + entry.oracle + "'");
  }
  Result<Scenario> scenario = ParseScenario(
      entry.program, entry.family.empty() ? "corpus" : entry.family,
      entry.seed);
  if (!scenario.ok()) {
    return OracleOutcome::Fail("corpus program does not parse: " +
                               scenario.status().ToString());
  }
  // A '% fault:' header arms the governor-prefix oracle's interruption
  // (a faults::kGovernorCheck action) so it exercises its trip path on
  // replay instead of skipping; the oracle rejects an unknown action.
  OracleConfig replay_config = config;
  if (!entry.fault.empty()) replay_config.interruption = entry.fault;
  // Likewise '% chaos:' re-arms the recorded fault-plan count (and seed
  // stream) so chaos-recovery entries replay their supervised recovery
  // instead of skipping under the default chaos-off config.
  if (entry.chaos != 0) {
    replay_config.chaos_plans = entry.chaos;
    if (entry.chaos_seed != 0) replay_config.chaos_seed = entry.chaos_seed;
  }
  return oracle->Check(scenario.value(), replay_config);
}

}  // namespace bddfc
