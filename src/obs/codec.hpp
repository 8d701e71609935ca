// Byte-level codec shared by the block-framed binary formats (capture v2,
// trace v2): LEB128 varints, zigzag signed mapping, little-endian IEEE
// doubles, FNV-1a 64 block checksums, and the checksummed block framing
// built on them.  Header-only and deliberately tiny — these are
// first-party file formats, not a general serialization library.
//
// Every decode helper is bounds-checked and fails with a diagnostic that
// names the format and the byte offset; nothing here reads out of
// bounds, which is what lets the readers survive the hostile corpora in
// tests/trend_test.cpp and tests/trace_test.cpp.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace iop::obs::codec {

inline void putVarint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

inline std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

inline void putZigzag(std::string& out, std::int64_t v) {
  putVarint(out, zigzag(v));
}

inline void putF64(std::string& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
  }
}

inline void putString(std::string& out, const std::string& s) {
  putVarint(out, s.size());
  out.append(s);
}

/// FNV-1a 64 over a byte range (same function family as the sweep cache
/// keys; this is torn-file detection, not a security boundary).
inline std::uint64_t fnv1a(const char* data, std::size_t size) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Bounds-checked varint decode.  Returns false on truncation or an
/// over-long (> 10 byte) encoding; `pos` advances only on success.
inline bool getVarint(const char* data, std::size_t size, std::size_t& pos,
                      std::uint64_t& out) noexcept {
  std::uint64_t v = 0;
  int shift = 0;
  std::size_t p = pos;
  while (p < size && shift < 64) {
    const auto byte = static_cast<unsigned char>(data[p++]);
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      pos = p;
      out = v;
      return true;
    }
    shift += 7;
  }
  return false;
}

inline bool getF64(const char* data, std::size_t size, std::size_t& pos,
                   double& out) noexcept {
  if (size - pos < 8 || pos > size) return false;
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<std::uint64_t>(
                static_cast<unsigned char>(data[pos + i]))
            << (8 * i);
  }
  pos += 8;
  std::memcpy(&out, &bits, sizeof out);
  return true;
}

// ---- block framing -------------------------------------------------------
//
// After a format's sniffable first line comes a sequence of blocks
//
//   [1 byte tag][varint payloadLen][payload][8 bytes LE FNV-1a64(payload)]
//
// ending with an empty kEndTag block that nothing may follow.  Every
// block's checksum is verified before its payload is parsed, so a torn
// tail, a truncated download or a flipped bit is rejected with a
// byte-offset diagnostic instead of mis-parsing into plausible data.

constexpr char kEndTag = 'E';

/// Names a block-framed format in its diagnostics, which read
/// "<name>: <what> at byte offset <n>"; `noun` is what a torn file held.
struct Format {
  const char* name;  ///< e.g. "capture v2"
  const char* noun;  ///< e.g. "capture"
};

[[noreturn]] inline void fail(const Format& format, const std::string& what,
                              std::size_t offset) {
  throw std::runtime_error(std::string(format.name) + ": " + what +
                           " at byte offset " + std::to_string(offset));
}

inline void appendBlock(std::string& out, char tag,
                        const std::string& payload) {
  out.push_back(tag);
  putVarint(out, payload.size());
  out.append(payload);
  const std::uint64_t sum = fnv1a(payload.data(), payload.size());
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((sum >> (8 * i)) & 0xff));
  }
}

/// One verified block, pointing into the file's byte buffer.
struct Block {
  char tag = 0;
  const char* payload = nullptr;
  std::size_t size = 0;
  std::size_t offset = 0;  ///< payload start in the file (diagnostics)
};

/// Bounds- and checksum-verified block walk.
class BlockReader {
 public:
  BlockReader(const Format& format, const std::string& bytes,
              std::size_t pos)
      : format_(format), data_(bytes.data()), size_(bytes.size()),
        pos_(pos) {}

  /// Next block, checksum-verified.  Returns false at a clean end of
  /// file; throws on truncation, a bad checksum, or trailing bytes after
  /// the end block.
  bool next(Block& out) {
    if (sawEnd_) {
      if (pos_ != size_) bad("trailing bytes after end block", pos_);
      return false;
    }
    if (pos_ >= size_) bad("truncated before end block", pos_);
    const std::size_t blockStart = pos_;
    const char tag = data_[pos_++];
    std::uint64_t len = 0;
    if (!getVarint(data_, size_, pos_, len)) {
      bad("truncated block length", blockStart);
    }
    if (len > size_ - pos_ || size_ - pos_ - len < 8) {
      bad(std::string("block payload overruns the file (torn or truncated ") +
              format_.noun + ")",
          blockStart);
    }
    const char* payload = data_ + pos_;
    const std::size_t payloadOffset = pos_;
    pos_ += len;
    std::uint64_t stored = 0;
    for (int i = 0; i < 8; ++i) {
      stored |= static_cast<std::uint64_t>(
                    static_cast<unsigned char>(data_[pos_ + i]))
                << (8 * i);
    }
    pos_ += 8;
    if (stored != fnv1a(payload, len)) {
      bad(std::string("checksum mismatch in '") + tag +
              "' block (bit flip or torn write)",
          blockStart);
    }
    if (tag == kEndTag) sawEnd_ = true;
    out = Block{tag, payload, static_cast<std::size_t>(len), payloadOffset};
    return true;
  }

 private:
  [[noreturn]] void bad(const std::string& what, std::size_t offset) const {
    fail(format_, what, offset);
  }

  Format format_;
  const char* data_;
  std::size_t size_;
  std::size_t pos_;
  bool sawEnd_ = false;
};

/// Cursor over one verified block payload with throwing accessors.
class PayloadReader {
 public:
  PayloadReader(const Format& format, const Block& block)
      : format_(format), data_(block.payload), size_(block.size),
        base_(block.offset) {}

  std::uint64_t varint(const char* what) {
    std::uint64_t v = 0;
    if (!getVarint(data_, size_, pos_, v)) {
      bad(std::string("truncated ") + what, base_ + pos_);
    }
    return v;
  }

  std::int64_t zigzag(const char* what) {
    return unzigzag(varint(what));
  }

  double f64(const char* what) {
    double v = 0;
    if (!getF64(data_, size_, pos_, v)) {
      bad(std::string("truncated ") + what, base_ + pos_);
    }
    return v;
  }

  std::string str(const char* what) {
    const std::uint64_t len = varint(what);
    if (len > size_ - pos_ || pos_ > size_) {
      bad(std::string(what) + " length overruns its block", base_ + pos_);
    }
    std::string out(data_ + pos_, len);
    pos_ += len;
    return out;
  }

  /// Decode an RLE column of exactly `n` values, each stored as
  /// { varint runLength, zigzag varint value }.
  std::vector<std::int64_t> rleColumn(std::size_t n, const char* what) {
    std::vector<std::int64_t> values;
    values.reserve(n);
    while (values.size() < n) {
      const std::uint64_t run = varint(what);
      if (run == 0 || run > n - values.size()) {
        bad(std::string("bad run length in ") + what, base_ + pos_);
      }
      const std::int64_t v = zigzag(what);
      values.insert(values.end(), static_cast<std::size_t>(run), v);
    }
    return values;
  }

  void expectExhausted(const char* what) {
    if (pos_ != size_) {
      bad(std::string("trailing bytes in ") + what + " block",
          base_ + pos_);
    }
  }

  std::size_t remaining() const noexcept { return size_ - pos_; }
  std::size_t offset() const noexcept { return base_ + pos_; }

 private:
  [[noreturn]] void bad(const std::string& what, std::size_t offset) const {
    fail(format_, what, offset);
  }

  Format format_;
  const char* data_;
  std::size_t size_;
  std::size_t base_;
  std::size_t pos_ = 0;
};

}  // namespace iop::obs::codec
