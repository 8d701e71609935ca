// Op outputs and the committed golden values they are checked against.
//
// An op's outputs are (key, value) text pairs: every Time_io bit-exact
// (printed with %.17g), the selected configuration, cell keys and hit /
// computed counts, model-text digests and phase counts.  At the default
// seed each op must reproduce golden/default-seed.txt exactly; at any
// other seed it must reproduce the run's first op.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

/// The seed the golden file was recorded at.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Ordered (key, value) pairs; keys are unique within one op.
using Outputs = std::vector<std::pair<std::string, std::string>>;

/// Golden outputs per workload name.
using Golden = std::map<std::string, Outputs>;

/// `%.17g`: enough digits that equal text means an equal double.
std::string exact(double value);

/// Parse "<workload> <key> <value...>" lines ('#' comments and blank lines
/// skipped).  Throws std::runtime_error naming the line on malformed input
/// or a duplicate key.
Golden parseGolden(const std::string& text);
Golden loadGolden(const std::filesystem::path& path);

/// Render outputs in the golden file's line format.
std::string renderGolden(const std::string& workload, const Outputs& outputs);

/// Empty when `actual` equals `expected`; otherwise a one-line description
/// of the first difference.
std::string diffOutputs(const Outputs& expected, const Outputs& actual);

}  // namespace e2e
