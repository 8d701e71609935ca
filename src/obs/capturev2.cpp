// Capture format v2: the columnar, block-compressed encoding of
// RunCapture ("iop-capture v2").  Self-contained — no external
// compression library — built from three primitives:
//
//  * varint + zigzag-delta + run-length columns for the phase table
//    (phase ids ascend by 1, family ids and weights repeat, so whole
//    columns collapse into a handful of RLE pairs),
//  * a label dictionary (phase labels draw from a tiny alphabet),
//  * front-coded metrics CSV lines (each line stores only the byte count
//    it shares with its predecessor plus the differing suffix — metric
//    names and histogram-bucket rows share long prefixes).
//
// Layout after the sniffable "iop-capture v2\n" first line is the block
// sequence of obs/codec.hpp, with tags 'H' (header: np, makespan, app,
// config), 'P' (phase columns), 'M' (front-coded metrics CSV) and 'E'
// (end marker, empty payload, nothing may follow).  Every block's
// checksum is verified before its payload is parsed, so a torn tail, a
// truncated download or a flipped bit is rejected with a byte-offset
// diagnostic instead of mis-parsing into a plausible-looking capture.
// Doubles travel as raw IEEE-754 bits: read-back is bit-exact, which is
// what lets iop-diff compare a v1 capture against its v2 re-encoding
// with zero findings.
#include "obs/capture.hpp"

#include <cstring>
#include <stdexcept>
#include <vector>

#include "obs/codec.hpp"

namespace iop::obs::detail {

namespace {

constexpr const char* kMagicV2 = "iop-capture v2\n";
constexpr codec::Format kFormat{"capture v2", "capture"};
constexpr char kBlockHeader = 'H';
constexpr char kBlockPhases = 'P';
constexpr char kBlockMetrics = 'M';
constexpr char kBlockEnd = codec::kEndTag;

using codec::appendBlock;
using codec::putF64;
using codec::putString;
using codec::putVarint;
using codec::putZigzag;

[[noreturn]] void bad(const std::string& what, std::size_t offset) {
  codec::fail(kFormat, what, offset);
}

/// Append one RLE pair stream encoding `values`: repeated
/// { varint runLength, zigzag varint value } until the column is covered.
void putRleColumn(std::string& out, const std::vector<std::int64_t>& values) {
  std::size_t i = 0;
  while (i < values.size()) {
    std::size_t run = 1;
    while (i + run < values.size() && values[i + run] == values[i]) ++run;
    putVarint(out, run);
    putZigzag(out, values[i]);
    i += run;
  }
}

/// Split text into lines; a trailing fragment without '\n' counts as a
/// line (mirrors the v1 writer's line accounting).
std::vector<std::string> splitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

std::size_t commonPrefix(const std::string& a, const std::string& b) {
  const std::size_t limit = std::min(a.size(), b.size());
  std::size_t n = 0;
  while (n < limit && a[n] == b[n]) ++n;
  return n;
}

}  // namespace

std::string encodeCaptureV2(const RunCapture& cap) {
  std::string out(kMagicV2);

  std::string header;
  putZigzag(header, cap.np);
  putF64(header, cap.makespan);
  putString(header, cap.app);
  putString(header, cap.config);
  appendBlock(out, kBlockHeader, header);

  std::string phases;
  const std::size_t n = cap.phases.size();
  putVarint(phases, n);
  if (n > 0) {
    // Delta columns: consecutive phases have ascending ids (delta 1),
    // slowly-changing family ids and frequently-identical weights, so
    // each column's delta stream is runs of a constant.
    std::vector<std::int64_t> ids, families, weights;
    ids.reserve(n);
    families.reserve(n);
    weights.reserve(n);
    std::int64_t prevId = 0, prevFamily = 0;
    std::int64_t prevWeight = 0;
    for (const auto& p : cap.phases) {
      ids.push_back(p.id - prevId);
      families.push_back(p.familyId - prevFamily);
      weights.push_back(static_cast<std::int64_t>(p.weightBytes) -
                        prevWeight);
      prevId = p.id;
      prevFamily = p.familyId;
      prevWeight = static_cast<std::int64_t>(p.weightBytes);
    }
    putRleColumn(phases, ids);
    putRleColumn(phases, families);
    putRleColumn(phases, weights);
    for (const auto& p : cap.phases) putF64(phases, p.ioSeconds);
    for (const auto& p : cap.phases) putF64(phases, p.bandwidth);
    // Label dictionary in first-appearance order + RLE'd indices.
    std::vector<std::string> dict;
    std::vector<std::int64_t> indices;
    indices.reserve(n);
    for (const auto& p : cap.phases) {
      std::size_t idx = 0;
      while (idx < dict.size() && dict[idx] != p.label) ++idx;
      if (idx == dict.size()) dict.push_back(p.label);
      indices.push_back(static_cast<std::int64_t>(idx));
    }
    putVarint(phases, dict.size());
    for (const auto& label : dict) putString(phases, label);
    putRleColumn(phases, indices);
  }
  appendBlock(out, kBlockPhases, phases);

  std::string metrics;
  const auto lines = splitLines(cap.metricsCsv);
  putVarint(metrics, lines.size());
  // The v1 writer normalizes a missing trailing newline away; record
  // whether one was present so v2 round-trips the exact byte string.
  metrics.push_back(
      !cap.metricsCsv.empty() && cap.metricsCsv.back() != '\n' ? 1 : 0);
  std::string prev;
  for (const auto& line : lines) {
    const std::size_t shared = commonPrefix(prev, line);
    putVarint(metrics, shared);
    putVarint(metrics, line.size() - shared);
    metrics.append(line, shared, line.size() - shared);
    prev = line;
  }
  appendBlock(out, kBlockMetrics, metrics);

  appendBlock(out, kBlockEnd, std::string());
  return out;
}

RunCapture decodeCaptureV2(const std::string& bytes) {
  const std::size_t magicLen = std::strlen(kMagicV2);
  if (bytes.compare(0, magicLen, kMagicV2) != 0) {
    bad("missing 'iop-capture v2' header line", 0);
  }
  RunCapture cap;
  bool sawHeader = false, sawPhases = false, sawMetrics = false;
  codec::BlockReader blocks(kFormat, bytes, magicLen);
  codec::Block block;
  while (blocks.next(block)) {
    codec::PayloadReader in(kFormat, block);
    switch (block.tag) {
      case kBlockHeader: {
        if (sawHeader) bad("duplicate header block", block.offset);
        sawHeader = true;
        const std::int64_t np = in.zigzag("np");
        if (np < 0 || np > (1 << 30)) bad("implausible np", block.offset);
        cap.np = static_cast<int>(np);
        cap.makespan = in.f64("makespan");
        cap.app = in.str("app name");
        cap.config = in.str("config name");
        in.expectExhausted("header");
        break;
      }
      case kBlockPhases: {
        if (sawPhases) bad("duplicate phases block", block.offset);
        sawPhases = true;
        const std::uint64_t n = in.varint("phase count");
        // Each phase carries two raw doubles, so the payload bounds the
        // plausible count long before any allocation happens.
        if (n > 0 && n > in.remaining() / 16) {
          bad("phase count exceeds block size", block.offset);
        }
        if (n == 0) break;
        const auto count = static_cast<std::size_t>(n);
        const auto ids = in.rleColumn(count, "phase id column");
        const auto families = in.rleColumn(count, "family id column");
        const auto weights = in.rleColumn(count, "weight column");
        cap.phases.resize(count);
        std::int64_t id = 0, family = 0, weight = 0;
        for (std::size_t i = 0; i < count; ++i) {
          id += ids[i];
          family += families[i];
          weight += weights[i];
          if (weight < 0) bad("negative phase weight", block.offset);
          cap.phases[i].id = static_cast<int>(id);
          cap.phases[i].familyId = static_cast<int>(family);
          cap.phases[i].weightBytes = static_cast<std::uint64_t>(weight);
        }
        for (std::size_t i = 0; i < count; ++i) {
          cap.phases[i].ioSeconds = in.f64("ioSeconds column");
        }
        for (std::size_t i = 0; i < count; ++i) {
          cap.phases[i].bandwidth = in.f64("bandwidth column");
        }
        const std::uint64_t dictSize = in.varint("label dictionary size");
        if (dictSize > count) {
          bad("label dictionary larger than the phase table", block.offset);
        }
        std::vector<std::string> dict;
        dict.reserve(static_cast<std::size_t>(dictSize));
        for (std::uint64_t i = 0; i < dictSize; ++i) {
          dict.push_back(in.str("label dictionary entry"));
        }
        const auto indices = in.rleColumn(count, "label index column");
        for (std::size_t i = 0; i < count; ++i) {
          if (indices[i] < 0 ||
              static_cast<std::uint64_t>(indices[i]) >= dictSize) {
            bad("label index outside the dictionary", block.offset);
          }
          cap.phases[i].label = dict[static_cast<std::size_t>(indices[i])];
        }
        in.expectExhausted("phases");
        break;
      }
      case kBlockMetrics: {
        if (sawMetrics) bad("duplicate metrics block", block.offset);
        sawMetrics = true;
        const std::uint64_t lineCount = in.varint("metrics line count");
        const bool noTrailingNewline =
            in.varint("trailing-newline flag") != 0;
        if (lineCount > in.remaining() / 2 + 1) {
          // Every line costs at least a two-varint prefix/suffix pair.
          bad("metrics line count exceeds block size", block.offset);
        }
        std::string prev;
        std::string csv;
        for (std::uint64_t i = 0; i < lineCount; ++i) {
          const std::uint64_t shared = in.varint("shared prefix length");
          if (shared > prev.size()) {
            bad("front-coded prefix longer than the previous line",
                in.offset());
          }
          std::string line = prev.substr(0, static_cast<std::size_t>(shared));
          line += in.str("metrics line suffix");
          csv += line;
          if (i + 1 < lineCount || !noTrailingNewline) csv += '\n';
          prev = std::move(line);
        }
        in.expectExhausted("metrics");
        cap.metricsCsv = std::move(csv);
        break;
      }
      case kBlockEnd:
        in.expectExhausted("end");
        break;
      default:
        bad(std::string("unknown block tag '") + block.tag + "'",
            block.offset);
    }
  }
  if (!sawHeader) bad("capture has no header block", bytes.size());
  return cap;
}

}  // namespace iop::obs::detail
