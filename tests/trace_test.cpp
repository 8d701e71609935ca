#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "trace/summary.hpp"
#include "trace/tracefile.hpp"
#include "trace/tracer.hpp"

namespace iop::trace {
namespace {

Record mkRec(int rank, int file, const char* op, std::uint64_t offset,
             std::uint64_t tick, std::uint64_t rs) {
  Record r;
  r.rank = rank;
  r.fileId = file;
  r.op = op;
  r.offsetUnits = offset;
  r.tick = tick;
  r.requestBytes = rs;
  r.time = 22.198392;
  r.duration = 0.131034;
  return r;
}

TEST(Tracer, AccumulatesPerRank) {
  Tracer tracer("app", 2);
  tracer.onIoCall(mkRec(0, 1, "MPI_File_write_at_all", 0, 148, 10612080));
  tracer.onIoCall(mkRec(1, 1, "MPI_File_write_at_all", 0, 147, 10612080));
  tracer.onIoCall(mkRec(0, 1, "MPI_File_write_at_all", 265302, 269,
                        10612080));
  const auto& data = tracer.data();
  EXPECT_EQ(data.perRank[0].size(), 2u);
  EXPECT_EQ(data.perRank[1].size(), 1u);
}

TEST(Tracer, RejectsOutOfRangeRank) {
  Tracer tracer("app", 2);
  EXPECT_THROW(tracer.onIoCall(mkRec(5, 1, "MPI_File_write", 0, 1, 10)),
               std::out_of_range);
}

TEST(Tracer, CountsCommEvents) {
  Tracer tracer("app", 2);
  tracer.onCommEvent(0, 1, "MPI_Barrier", 0.0);
  tracer.onCommEvent(0, 2, "MPI_Bcast", 0.1);
  tracer.onCommEvent(1, 1, "MPI_Barrier", 0.0);
  EXPECT_EQ(tracer.data().commEventsPerRank[0], 2u);
  EXPECT_EQ(tracer.data().commEventsPerRank[1], 1u);
}

TEST(TraceData, RecordsForFileFilters) {
  Tracer tracer("app", 1);
  tracer.onIoCall(mkRec(0, 1, "MPI_File_write", 0, 1, 10));
  tracer.onIoCall(mkRec(0, 2, "MPI_File_write", 0, 2, 10));
  tracer.onIoCall(mkRec(0, 1, "MPI_File_read", 0, 3, 10));
  EXPECT_EQ(tracer.data().recordsForFile(1).size(), 2u);
  EXPECT_EQ(tracer.data().recordsForFile(2).size(), 1u);
}

TEST(TraceData, TotalBytes) {
  Tracer tracer("app", 2);
  tracer.onIoCall(mkRec(0, 1, "MPI_File_write", 0, 1, 100));
  tracer.onIoCall(mkRec(1, 1, "MPI_File_write", 0, 1, 250));
  EXPECT_EQ(tracer.data().totalBytes(), 350u);
}

TEST(OpClassification, WriteAndCollective) {
  EXPECT_TRUE(isWriteOp("MPI_File_write_at_all"));
  EXPECT_TRUE(isWriteOp("MPI_File_write"));
  EXPECT_FALSE(isWriteOp("MPI_File_read_at"));
  EXPECT_TRUE(isCollectiveOp("MPI_File_write_at_all"));
  EXPECT_TRUE(isCollectiveOp("MPI_File_read_all"));
  EXPECT_FALSE(isCollectiveOp("MPI_File_write_at"));
  EXPECT_FALSE(isCollectiveOp("MPI_File_write"));
}

TEST(TraceFile, WriteReadRoundTrip) {
  Tracer tracer("rt-app", 2);
  FileMeta meta;
  meta.fileId = 1;
  meta.path = "data.bin";
  meta.shared = true;
  meta.etypeBytes = 40;
  meta.filetypeBlock = 265302;
  meta.filetypeStride = 4 * 265302;
  meta.sawCollective = true;
  meta.sawExplicitOffsets = true;
  meta.np = 2;
  tracer.onFileMeta(meta);
  tracer.onIoCall(mkRec(0, 1, "MPI_File_write_at_all", 0, 148, 10612080));
  tracer.onIoCall(mkRec(1, 1, "MPI_File_write_at_all", 0, 147, 10612080));
  tracer.onCommEvent(0, 1, "MPI_Barrier", 0.0);

  const auto dir = std::filesystem::temp_directory_path() / "iop_trace_rt";
  writeTraces(dir, tracer.data());
  auto loaded = readTraces(dir, "rt-app");
  std::filesystem::remove_all(dir);

  EXPECT_EQ(loaded.np, 2);
  ASSERT_EQ(loaded.perRank[0].size(), 1u);
  const auto& r = loaded.perRank[0][0];
  EXPECT_EQ(r.op, "MPI_File_write_at_all");
  EXPECT_EQ(r.tick, 148u);
  EXPECT_EQ(r.requestBytes, 10612080u);
  EXPECT_NEAR(r.time, 22.198392, 1e-9);
  ASSERT_EQ(loaded.files.size(), 1u);
  EXPECT_EQ(loaded.files[0].etypeBytes, 40u);
  EXPECT_EQ(loaded.files[0].filetypeStride, 4u * 265302);
  EXPECT_EQ(loaded.commEventsPerRank[0], 1u);
}

TEST(TraceFile, RankFileBytesMatchPrintfFormatting) {
  // Rank files are formatted with std::to_chars; the bytes must equal the
  // printf("%d %d %s %" PRIu64 " %" PRIu64 " %" PRIu64 " %.9f %.9f\n")
  // rendering earlier traces were written with, for every double shape:
  // signed zero, rounding at the ninth decimal, carries into the integer
  // part, large magnitudes and non-finite values.
  const std::vector<double> values = {
      0.0,  -0.0, 5e-10, 0.9999999995, 123456.123456789, 1e17,
      std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -2.5e-10, 1.5e-9, -7.0000000005, 1.7976931348623157e308};
  TraceData data;
  data.appName = "printf";
  data.np = 1;
  data.perRank.resize(1);
  data.commEventsPerRank.assign(1, 0);
  std::string expected =
      "# iop-trace v1\n"
      "# IdP IdF MPI-Operation Offset tick RequestSize time duration\n";
  std::uint64_t n = 0;
  for (const double time : values) {
    for (const double duration : values) {
      Record r;
      r.rank = 0;
      r.fileId = n % 3 == 0 ? -1 : 7;
      r.op = n % 2 == 0 ? "MPI_File_write_at_all" : "MPI_File_read";
      r.offsetUnits = n % 5 == 0 ? std::numeric_limits<std::uint64_t>::max()
                                 : n * 4096;
      r.tick = n;
      r.requestBytes = n * n;
      r.time = time;
      r.duration = duration;
      char line[1024];
      std::snprintf(line, sizeof line,
                    "%d %d %s %" PRIu64 " %" PRIu64 " %" PRIu64
                    " %.9f %.9f\n",
                    r.rank, r.fileId, r.op.c_str(), r.offsetUnits, r.tick,
                    r.requestBytes, r.time, r.duration);
      expected += line;
      data.perRank[0].push_back(std::move(r));
      ++n;
    }
  }
  const auto dir =
      std::filesystem::temp_directory_path() / "iop_trace_printf";
  std::filesystem::remove_all(dir);
  writeTraces(dir, data);
  std::ifstream in(dir / "printf.trace.0", std::ios::binary);
  const std::string written((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  std::filesystem::remove_all(dir);
  EXPECT_EQ(written, expected);
}

TEST(TraceFile, ReadMissingFileThrows) {
  EXPECT_THROW(readTraces("/nonexistent-dir-xyz", "nope"),
               std::runtime_error);
}

/// Scratch trace directory with a minimal valid meta file; tests then
/// drop hostile rank files next to it.
class HostileTraceDir {
 public:
  explicit HostileTraceDir(const std::string& name)
      : dir_(std::filesystem::temp_directory_path() /
             ("iop_trace_hostile_" + name)) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    writeFile("h.meta", "# iop-trace-meta v1\napp h\nnp 1\n");
  }
  ~HostileTraceDir() { std::filesystem::remove_all(dir_); }

  void writeFile(const std::string& name, const std::string& bytes) {
    std::ofstream out(dir_ / name, std::ios::binary);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
  }
  const std::filesystem::path& dir() const { return dir_; }

 private:
  std::filesystem::path dir_;
};

/// readTraces must fail with a diagnostic carrying every fragment in
/// `needles` — at minimum the file and 1-based line of the bad record.
void expectReadError(const HostileTraceDir& scratch,
                     const std::vector<std::string>& needles) {
  try {
    readTraces(scratch.dir(), "h");
    FAIL() << "expected malformed-trace error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    for (const auto& needle : needles) {
      EXPECT_NE(what.find(needle), std::string::npos)
          << "diagnostic '" << what << "' lacks '" << needle << "'";
    }
  }
}

TEST(TraceFileHostile, EmptyRankFileIsZeroRecords) {
  HostileTraceDir scratch("empty");
  scratch.writeFile("h.trace.0", "");
  const auto data = readTraces(scratch.dir(), "h");
  EXPECT_TRUE(data.perRank[0].empty());
}

TEST(TraceFileHostile, BlankLinesAndCommentsAreIgnored) {
  HostileTraceDir scratch("comments");
  scratch.writeFile("h.trace.0",
                    "# header\n\n   \n0 1 MPI_File_write 0 1 100 0.5 0.1\n");
  const auto data = readTraces(scratch.dir(), "h");
  ASSERT_EQ(data.perRank[0].size(), 1u);
  EXPECT_EQ(data.perRank[0][0].requestBytes, 100u);
}

TEST(TraceFileHostile, MidRecordTruncationNamesFileAndLine) {
  // A kill mid-write leaves a final record missing fields.
  HostileTraceDir scratch("truncated");
  scratch.writeFile("h.trace.0",
                    "0 1 MPI_File_write 0 1 100 0.5 0.1\n"
                    "0 1 MPI_File_write 100 2 100 0.6");
  expectReadError(scratch, {"h.trace.0:2:", "malformed trace record",
                            "MPI_File_write 100 2 100 0.6"});
}

TEST(TraceFileHostile, NulBytesAreEscapedInTheDiagnostic) {
  HostileTraceDir scratch("nul");
  std::string line = "0 1 MPI_File_write 0";
  line.push_back('\0');
  line += "9 1 100 0.5 0.1\n";
  scratch.writeFile("h.trace.0", line);
  // The NUL lands inside the offset field and fails the parse; the
  // excerpt must render it visibly instead of silently truncating the
  // message at the first zero byte.
  expectReadError(scratch, {"h.trace.0:1:", "\\x00"});
}

TEST(TraceFileHostile, HugeOffsetsRoundTrip) {
  // Offsets past 2 GiB (and near UINT64_MAX) must parse exactly; 32-bit
  // arithmetic anywhere in the parser would mangle them.
  HostileTraceDir scratch("huge");
  scratch.writeFile("h.trace.0",
                    "0 1 MPI_File_write 4294967296 1 2147483648 0.5 0.1\n"
                    "0 1 MPI_File_write 18446744073709551615 2 1 0.5 0.1\n");
  const auto data = readTraces(scratch.dir(), "h");
  ASSERT_EQ(data.perRank[0].size(), 2u);
  EXPECT_EQ(data.perRank[0][0].offsetUnits, 4294967296ULL);
  EXPECT_EQ(data.perRank[0][0].requestBytes, 2147483648ULL);
  EXPECT_EQ(data.perRank[0][1].offsetUnits, 18446744073709551615ULL);
}

TEST(TraceFileHostile, OverlongLinesAreClippedInTheDiagnostic) {
  HostileTraceDir scratch("overlong");
  scratch.writeFile("h.trace.0", std::string(4096, 'A') + "\n");
  expectReadError(scratch, {"h.trace.0:1:", "... (4096 bytes)"});
}

TEST(TraceFileHostile, MalformedMetaNamesFileAndLine) {
  HostileTraceDir scratch("meta");
  scratch.writeFile("h.meta", "# iop-trace-meta v1\napp h\nnp banana\n");
  expectReadError(scratch, {"h.meta:3:", "malformed meta record"});

  scratch.writeFile("h.meta",
                    "app h\nnp 1\nfile 1 data.bin 1 40\n");  // short row
  expectReadError(scratch, {"h.meta:3:", "needs at least 12 fields"});
}

TEST(TraceFileHostile, CommRanksOutsideTheProcessCountAreRejected) {
  // Every comm rank must index one of the np rank files.  A negative rank
  // must not wrap to SIZE_MAX, and a rank at np must not be silently
  // dropped; both name the meta line.
  HostileTraceDir scratch("comm");
  scratch.writeFile("h.trace.0", "");
  scratch.writeFile("h.trace.1", "");
  for (const char* rank : {"-1", "18446744073709551615", "2"}) {
    scratch.writeFile("h.meta", std::string("app h\nnp 2\ncomm 0 3\ncomm ") +
                                    rank + " 1\n");
    expectReadError(scratch, {"h.meta:4:", "malformed meta record"});
  }
  // A comm line may precede np; in range, it still lands on its rank.
  scratch.writeFile("h.meta", "app h\ncomm 1 5\nnp 2\n");
  const auto data = readTraces(scratch.dir(), "h");
  ASSERT_EQ(data.commEventsPerRank.size(), 2u);
  EXPECT_EQ(data.commEventsPerRank[0], 0u);
  EXPECT_EQ(data.commEventsPerRank[1], 5u);
}

TEST(TraceFile, RenderTableMatchesFigure2Shape) {
  Tracer tracer("fig2", 1);
  tracer.onIoCall(mkRec(0, 1, "MPI_File_write_at_all", 0, 148, 10612080));
  tracer.onIoCall(mkRec(0, 1, "MPI_File_write_at_all", 265302, 269,
                        10612080));
  auto text = renderTraceTable(tracer.data(), 0);
  EXPECT_NE(text.find("IdP"), std::string::npos);
  EXPECT_NE(text.find("RequestSize"), std::string::npos);
  EXPECT_NE(text.find("265302"), std::string::npos);
  EXPECT_NE(text.find("10612080"), std::string::npos);
}

TEST(TraceFile, MaxRowsLimitsOutput) {
  Tracer tracer("fig2", 1);
  for (int i = 0; i < 10; ++i) {
    tracer.onIoCall(mkRec(0, 1, "MPI_File_write", i * 10, 1 + i, 10));
  }
  auto text = renderTraceTable(tracer.data(), 0, 3);
  int rows = 0;
  std::size_t pos = 0;
  while ((pos = text.find("MPI_File_write", pos)) != std::string::npos) {
    ++rows;
    pos += 1;
  }
  EXPECT_EQ(rows, 3);
}

TEST(Summary, CountsOpsAndBytesPerFile) {
  Tracer tracer("sum", 2);
  FileMeta meta;
  meta.fileId = 1;
  meta.path = "a.dat";
  meta.etypeBytes = 1;
  tracer.onFileMeta(meta);
  tracer.onIoCall(mkRec(0, 1, "MPI_File_write", 0, 1, 100));
  tracer.onIoCall(mkRec(0, 1, "MPI_File_write", 100, 2, 100));   // seq
  tracer.onIoCall(mkRec(0, 1, "MPI_File_read", 5000, 3, 200));   // jump
  tracer.onIoCall(mkRec(1, 1, "MPI_File_write_at_all", 0, 1, 50));
  auto summary = summarizeTrace(tracer.data());
  ASSERT_EQ(summary.files.size(), 1u);
  const auto& f = summary.files[0];
  EXPECT_EQ(f.writeOps, 3u);
  EXPECT_EQ(f.readOps, 1u);
  EXPECT_EQ(f.bytesWritten, 250u);
  EXPECT_EQ(f.bytesRead, 200u);
  EXPECT_EQ(f.collectiveOps, 1u);
  EXPECT_EQ(f.independentOps, 3u);
  EXPECT_EQ(f.minRequest, 50u);
  EXPECT_EQ(f.maxRequest, 200u);
  EXPECT_EQ(summary.totalBytes, 450u);
  // Two follow-up ops on rank 0 (one sequential, one jump); rank 1 has
  // only a first op.
  EXPECT_NEAR(f.sequentialFraction, 0.5, 1e-9);
}

TEST(Summary, EtypeScaledOffsetsCountAsSequential) {
  Tracer tracer("sum", 1);
  FileMeta meta;
  meta.fileId = 1;
  meta.path = "v.dat";
  meta.etypeBytes = 40;
  tracer.onFileMeta(meta);
  // 400-byte requests advance the view offset by 10 etypes.
  tracer.onIoCall(mkRec(0, 1, "MPI_File_write_at_all", 0, 1, 400));
  tracer.onIoCall(mkRec(0, 1, "MPI_File_write_at_all", 10, 2, 400));
  auto summary = summarizeTrace(tracer.data());
  EXPECT_NEAR(summary.files[0].sequentialFraction, 1.0, 1e-9);
}

TEST(Summary, SizeHistogramBinsRequests) {
  Tracer tracer("sum", 1);
  FileMeta meta;
  meta.fileId = 1;
  meta.path = "h.dat";
  tracer.onFileMeta(meta);
  tracer.onIoCall(mkRec(0, 1, "MPI_File_write", 0, 1, 50));        // 0-100
  tracer.onIoCall(mkRec(0, 1, "MPI_File_write", 50, 2, 2048));     // 1K-10K
  tracer.onIoCall(mkRec(0, 1, "MPI_File_write", 3000, 3, 5 << 20));  // 4M-10M
  auto summary = summarizeTrace(tracer.data());
  const auto& bins = summary.files[0].sizeBins;
  EXPECT_EQ(bins[0], 1u);
  EXPECT_EQ(bins[2], 1u);
  EXPECT_EQ(bins[6], 1u);
}

TEST(Summary, RenderMentionsFilesAndHistogram) {
  Tracer tracer("renderme", 1);
  FileMeta meta;
  meta.fileId = 1;
  meta.path = "x.dat";
  tracer.onFileMeta(meta);
  tracer.onIoCall(mkRec(0, 1, "MPI_File_write", 0, 1, 1024));
  auto text = summarizeTrace(tracer.data()).render();
  EXPECT_NE(text.find("renderme"), std::string::npos);
  EXPECT_NE(text.find("x.dat"), std::string::npos);
  EXPECT_NE(text.find("histogram"), std::string::npos);
}

}  // namespace
}  // namespace iop::trace
