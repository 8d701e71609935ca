#include "golden.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

namespace e2e {

std::string exact(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

Golden parseGolden(const std::string& text) {
  Golden golden;
  std::map<std::string, std::set<std::string>> seen;
  std::istringstream in(text);
  std::string line;
  std::size_t lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, key, value;
    fields >> workload >> key;
    std::getline(fields >> std::ws, value);
    if (workload.empty() || key.empty() || value.empty()) {
      throw std::runtime_error("golden line " + std::to_string(lineNo) +
                               ": want '<workload> <key> <value>'");
    }
    if (!seen[workload].insert(key).second) {
      throw std::runtime_error("golden line " + std::to_string(lineNo) +
                               ": duplicate key " + workload + " " + key);
    }
    golden[workload].emplace_back(key, value);
  }
  return golden;
}

Golden loadGolden(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream text;
  text << in.rdbuf();
  return parseGolden(text.str());
}

std::string renderGolden(const std::string& workload,
                         const Outputs& outputs) {
  std::string out;
  for (const auto& [key, value] : outputs) {
    out += workload + " " + key + " " + value + "\n";
  }
  return out;
}

std::string diffOutputs(const Outputs& expected, const Outputs& actual) {
  const std::size_t n = std::max(expected.size(), actual.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (i >= expected.size()) {
      return "unexpected output " + actual[i].first;
    }
    if (i >= actual.size()) return "missing output " + expected[i].first;
    if (expected[i] != actual[i]) {
      return expected[i].first + " = " + expected[i].second + ", got " +
             actual[i].first + " = " + actual[i].second;
    }
  }
  return {};
}

}  // namespace e2e
