#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "analysis/runner.hpp"
#include "apps/btio.hpp"
#include "apps/registry.hpp"
#include "configs/configs.hpp"
#include "core/iomodel.hpp"
#include "obs/codec.hpp"
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

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

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
  // Times and durations are stored as what their v1 text,
  // printf("%.9f"), parses back as: a container round trip must return
  // exactly those bits for every double shape — signed zero, rounding at
  // the ninth decimal, carries into the integer part, large magnitudes
  // and non-finite values — and every integer column unchanged.
  const std::vector<double> values = {
      0.0,  -0.0, 5e-10, 0.9999999995, 123456.123456789, 1e17,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -2.5e-10, 1.5e-9, -7.0000000005, 1.7976931348623157e308};
  const auto printfValue = [](double x) {
    char text[512];
    std::snprintf(text, sizeof text, "%.9f", x);
    double back = 0;
    const auto [end, ec] = std::from_chars(text, text + std::strlen(text),
                                           back);
    EXPECT_EQ(ec, std::errc()) << text;
    EXPECT_EQ(end, text + std::strlen(text)) << text;
    return back;
  };
  TraceData data;
  data.appName = "printf";
  data.np = 1;
  data.perRank.resize(1);
  data.commEventsPerRank.assign(1, 0);
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
      data.perRank[0].push_back(std::move(r));
      ++n;
    }
  }
  const auto dir =
      std::filesystem::temp_directory_path() / "iop_trace_printf";
  std::filesystem::remove_all(dir);
  writeTraces(dir, data);
  const auto loaded = readTraces(dir, "printf");
  std::filesystem::remove_all(dir);
  ASSERT_EQ(loaded.perRank.size(), 1u);
  ASSERT_EQ(loaded.perRank[0].size(), data.perRank[0].size());
  for (std::size_t i = 0; i < data.perRank[0].size(); ++i) {
    const auto& want = data.perRank[0][i];
    const auto& got = loaded.perRank[0][i];
    EXPECT_EQ(got.rank, want.rank);
    EXPECT_EQ(got.fileId, want.fileId);
    EXPECT_EQ(got.op, want.op);
    EXPECT_EQ(got.offsetUnits, want.offsetUnits);
    EXPECT_EQ(got.tick, want.tick);
    EXPECT_EQ(got.requestBytes, want.requestBytes);
    EXPECT_EQ(bits(got.time), bits(printfValue(want.time))) << "record " << i;
    EXPECT_EQ(bits(got.duration), bits(printfValue(want.duration)))
        << "record " << i;
  }
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

// --- iop-trace v2 container ----------------------------------------------

/// Every field of two traces equal; doubles compared by bit pattern.
void expectSameTrace(const TraceData& want, const TraceData& got) {
  EXPECT_EQ(got.appName, want.appName);
  EXPECT_EQ(got.np, want.np);
  EXPECT_EQ(got.commEventsPerRank, want.commEventsPerRank);
  ASSERT_EQ(got.files.size(), want.files.size());
  for (std::size_t i = 0; i < want.files.size(); ++i) {
    const auto& a = want.files[i];
    const auto& b = got.files[i];
    EXPECT_EQ(b.fileId, a.fileId);
    EXPECT_EQ(b.path, a.path);
    EXPECT_EQ(b.shared, a.shared);
    EXPECT_EQ(b.etypeBytes, a.etypeBytes);
    EXPECT_EQ(b.viewDisp, a.viewDisp);
    EXPECT_EQ(b.filetypeBlock, a.filetypeBlock);
    EXPECT_EQ(b.filetypeStride, a.filetypeStride);
    EXPECT_EQ(b.sawCollective, a.sawCollective);
    EXPECT_EQ(b.sawExplicitOffsets, a.sawExplicitOffsets);
    EXPECT_EQ(b.sawIndividualPointers, a.sawIndividualPointers);
    EXPECT_EQ(b.sawNonBlocking, a.sawNonBlocking);
    EXPECT_EQ(b.np, a.np);
  }
  ASSERT_EQ(got.perRank.size(), want.perRank.size());
  for (std::size_t rank = 0; rank < want.perRank.size(); ++rank) {
    ASSERT_EQ(got.perRank[rank].size(), want.perRank[rank].size())
        << "rank " << rank;
    for (std::size_t i = 0; i < want.perRank[rank].size(); ++i) {
      const auto& a = want.perRank[rank][i];
      const auto& b = got.perRank[rank][i];
      ASSERT_TRUE(b.rank == a.rank && b.fileId == a.fileId && b.op == a.op &&
                  b.offsetUnits == a.offsetUnits && b.tick == a.tick &&
                  b.requestBytes == a.requestBytes &&
                  bits(b.time) == bits(a.time) &&
                  bits(b.duration) == bits(a.duration))
          << "rank " << rank << " record " << i;
    }
  }
}

/// The v1 Figure-2 text of a trace, rendered with printf as v1 writers
/// did: `<app>.meta` plus one `<app>.trace.<rank>` per rank.
void writeV1(const std::filesystem::path& dir, const TraceData& data) {
  std::filesystem::create_directories(dir);
  std::ofstream meta(dir / (data.appName + ".meta"));
  meta << "# iop-trace-meta v1\napp " << data.appName << "\nnp " << data.np
       << "\n";
  for (const auto& f : data.files) {
    meta << "file " << f.fileId << ' ' << f.path << ' ' << f.shared << ' '
         << f.etypeBytes << ' ' << f.viewDisp << ' ' << f.filetypeBlock
         << ' ' << f.filetypeStride << ' ' << f.sawCollective << ' '
         << f.sawExplicitOffsets << ' ' << f.sawIndividualPointers << ' '
         << f.np << (f.sawNonBlocking ? " 1" : "") << "\n";
  }
  for (std::size_t i = 0; i < data.commEventsPerRank.size(); ++i) {
    meta << "comm " << i << ' ' << data.commEventsPerRank[i] << "\n";
  }
  for (int rank = 0; rank < data.np; ++rank) {
    std::FILE* out = std::fopen(
        (dir / (data.appName + ".trace." + std::to_string(rank))).c_str(),
        "w");
    ASSERT_NE(out, nullptr);
    std::fputs("# iop-trace v1\n", out);
    for (const auto& r : data.perRank[static_cast<std::size_t>(rank)]) {
      std::fprintf(out,
                   "%d %d %s %" PRIu64 " %" PRIu64 " %" PRIu64 " %.9f %.9f\n",
                   r.rank, r.fileId, r.op.c_str(), r.offsetUnits, r.tick,
                   r.requestBytes, r.time, r.duration);
    }
    std::fclose(out);
  }
}

/// Scratch directory removed on scope exit.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : dir_(std::filesystem::temp_directory_path() / ("iop_trace_" + name)) {
    std::filesystem::remove_all(dir_);
  }
  ~ScratchDir() { std::filesystem::remove_all(dir_); }
  const std::filesystem::path& dir() const { return dir_; }

 private:
  std::filesystem::path dir_;
};

analysis::AppRun traceRegistryApp(const std::string& app,
                                  const apps::AppParams& params, int np) {
  auto cluster = configs::makeConfig(configs::ConfigId::A);
  return analysis::runAndTrace(
      cluster, app, apps::makeApp(app, cluster.mount, params), np);
}

/// A real trace for the hostile-byte corpus: the example app at np=2.
const std::string& realContainer() {
  static const std::string bytes =
      encodeTrace(traceRegistryApp("example", {}, 2).trace);
  return bytes;
}

TEST(TraceV2, V1AndV2ReadBackIdentically) {
  // The cases of ModelDigest.RegistryAppsAtSmallNp: each trace read back
  // from v1 text and from the container must agree field for field, so
  // every model digest pinned on v1 round trips holds for the container.
  const std::vector<std::pair<std::string, apps::AppParams>> cases = {
      {"btio", {{"class", "A"}}},
      {"btio", {{"class", "A"}, {"subtype", "simple"}}},
      {"madbench2", {{"kpix", "2"}}},
      {"roms", {{"steps", "20"}}},
      {"flash-io", {{"unknowns", "4"}}},
      {"example", {}},
  };
  for (const auto& [app, params] : cases) {
    SCOPED_TRACE(app);
    const auto trace = traceRegistryApp(app, params, 4).trace;
    ScratchDir v1("v1_" + app), v2("v2_" + app);
    writeV1(v1.dir(), trace);
    writeTraces(v2.dir(), trace);
    const auto fromText = readTraces(v1.dir(), app);
    const auto fromContainer = readTraces(v2.dir(), app);
    expectSameTrace(fromText, fromContainer);
    EXPECT_EQ(core::extractModel(fromText).renderText(),
              core::extractModel(fromContainer).renderText());
  }
}

TEST(TraceV2, WritesExactlyOneFile) {
  const auto trace = traceRegistryApp("btio", {{"class", "A"}}, 4).trace;
  ScratchDir scratch("one_file");
  writeTraces(scratch.dir(), trace);
  std::vector<std::string> names;
  for (const auto& entry :
       std::filesystem::directory_iterator(scratch.dir())) {
    names.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(names, std::vector<std::string>{"btio.trace"});
  EXPECT_EQ(traceFilePath(scratch.dir(), "btio"), scratch.dir() / "btio.trace");
}

TEST(TraceV2, EncodingIsDeterministic) {
  const auto trace = traceRegistryApp("madbench2", {{"kpix", "2"}}, 4).trace;
  EXPECT_EQ(encodeTrace(trace), encodeTrace(trace));
  ScratchDir a("det_a"), b("det_b");
  writeTraces(a.dir(), trace);
  writeTraces(b.dir(), trace);
  const auto slurp = [](const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  EXPECT_EQ(slurp(a.dir() / "madbench2.trace"),
            slurp(b.dir() / "madbench2.trace"));
}

TEST(TraceV2, ContainerWinsOverV1Files) {
  const auto trace = traceRegistryApp("example", {}, 2).trace;
  ScratchDir scratch("both");
  TraceData stale = trace;
  stale.perRank[0].clear();
  writeV1(scratch.dir(), stale);
  writeTraces(scratch.dir(), trace);
  const auto loaded = readTraces(scratch.dir(), "example");
  EXPECT_EQ(loaded.perRank[0].size(), trace.perRank[0].size());
}

TEST(TraceV2, BtioClassAAt121RanksIsATenthOfItsText) {
  // The e2ebench trace-to-model input: 9,680 records, ~685 KB of v1 text.
  auto cluster = configs::makeConfig(configs::ConfigId::A);
  apps::BtioParams params;
  params.mount = cluster.mount;
  params.cls = apps::BtClass::A;
  const auto trace =
      analysis::runAndTrace(cluster, "btio-A", apps::makeBtio(params), 121)
          .trace;
  const std::size_t size = encodeTrace(trace).size();
  EXPECT_LE(size, 68u * 1000) << "container is " << size << " bytes";
}

TEST(TraceV2, WriterRejectsInconsistentTraces) {
  TraceData data;
  data.appName = "bad";
  data.np = 2;
  data.perRank.resize(1);
  EXPECT_THROW(encodeTrace(data), std::invalid_argument);
  data.perRank.resize(2);
  data.perRank[1].push_back(mkRec(0, 1, "MPI_File_write", 0, 1, 10));
  data.perRank[1].push_back(mkRec(1, 1, "MPI_File_write", 0, 2, 10));
  EXPECT_THROW(encodeTrace(data), std::invalid_argument);
}

TEST(TraceV2, EveryTruncationIsRejectedWithDiagnostics) {
  const std::string& full = realContainer();
  for (std::size_t len = 0; len < full.size(); ++len) {
    try {
      decodeTrace(full.substr(0, len));
      FAIL() << "truncation to " << len << " bytes decoded successfully";
    } catch (const std::runtime_error& e) {
      EXPECT_STRNE(e.what(), "") << "empty diagnostic at length " << len;
    }
  }
}

TEST(TraceV2, TrailingBytesAfterEndBlockAreRejected) {
  const std::string bytes = realContainer() + '\0';
  try {
    decodeTrace(bytes);
    FAIL() << "trailing byte accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("trailing bytes after end block"),
              std::string::npos)
        << e.what();
  }
}

TEST(TraceV2, EveryBitFlipIsDetectedOrHarmless) {
  const std::string& full = realContainer();
  const TraceData want = decodeTrace(full);
  for (std::size_t byte = 0; byte < full.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = full;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      try {
        // Block checksums make a silent mis-decode the failure to fear;
        // a flip that still decodes must decode to the same trace.
        const TraceData got = decodeTrace(flipped);
        SCOPED_TRACE("byte " + std::to_string(byte) + " bit " +
                     std::to_string(bit));
        expectSameTrace(want, got);
      } catch (const std::runtime_error& e) {
        EXPECT_STRNE(e.what(), "")
            << "empty diagnostic at byte " << byte << " bit " << bit;
      }
    }
  }
}

/// A container assembled block by block, with valid checksums, so a test
/// can plant one hostile count and reach the check that guards it.
struct HandBuilt {
  std::string header, signatures, dictionaries;
  std::vector<std::string> streams;

  /// np=1, no files, one signature, one time, one duration and one
  /// record.
  static HandBuilt valid() {
    HandBuilt h;
    obs::codec::putString(h.header, "h");
    obs::codec::putVarint(h.header, 1);  // np
    obs::codec::putVarint(h.header, 0);  // files
    obs::codec::putVarint(h.header, 0);  // comm count of rank 0
    obs::codec::putVarint(h.signatures, 1);
    obs::codec::putString(h.signatures, "MPI_File_write");
    obs::codec::putZigzag(h.signatures, 1);
    obs::codec::putVarint(h.signatures, 100);
    for (int dict = 0; dict < 2; ++dict) {
      obs::codec::putVarint(h.dictionaries, 1);
      obs::codec::putF64(h.dictionaries, 0.5);
    }
    std::string stream;
    obs::codec::putZigzag(stream, 0);  // rank
    obs::codec::putVarint(stream, 1);  // records
    for (int field = 0; field < 5; ++field) obs::codec::putVarint(stream, 0);
    h.streams.push_back(stream);
    return h;
  }

  std::string bytes() const {
    std::string out = "iop-trace v2\n";
    obs::codec::appendBlock(out, 'H', header);
    obs::codec::appendBlock(out, 'S', signatures);
    obs::codec::appendBlock(out, 'D', dictionaries);
    for (const auto& stream : streams) {
      obs::codec::appendBlock(out, 'R', stream);
    }
    obs::codec::appendBlock(out, 'E', std::string());
    return out;
  }
};

void expectCountRejected(const std::string& bytes, const std::string& what) {
  try {
    decodeTrace(bytes);
    FAIL() << what << " accepted";
  } catch (const std::runtime_error& e) {
    // A count that reached an allocation would throw length_error or
    // bad_alloc instead of this diagnostic.
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

TEST(TraceV2, HandBuiltContainerDecodes) {
  const auto data = decodeTrace(HandBuilt::valid().bytes());
  ASSERT_EQ(data.np, 1);
  ASSERT_EQ(data.perRank[0].size(), 1u);
  EXPECT_EQ(data.perRank[0][0].op, "MPI_File_write");
  EXPECT_EQ(data.perRank[0][0].requestBytes, 100u);
  EXPECT_EQ(data.perRank[0][0].time, 0.5);
}

TEST(TraceV2, HostileCountsAreRejectedBeforeAllocation) {
  constexpr std::uint64_t kHuge = ~std::uint64_t{0} - 1;
  {
    auto h = HandBuilt::valid();
    h.header.clear();
    obs::codec::putString(h.header, "h");
    obs::codec::putVarint(h.header, kHuge);
    obs::codec::putVarint(h.header, 0);
    obs::codec::putVarint(h.header, 0);
    expectCountRejected(h.bytes(), "np");
  }
  {
    auto h = HandBuilt::valid();
    h.header.clear();
    obs::codec::putString(h.header, "h");
    obs::codec::putVarint(h.header, 1);
    obs::codec::putVarint(h.header, kHuge);
    obs::codec::putVarint(h.header, 0);
    expectCountRejected(h.bytes(), "file count");
  }
  {
    auto h = HandBuilt::valid();
    h.signatures.clear();
    obs::codec::putVarint(h.signatures, kHuge);
    expectCountRejected(h.bytes(), "signature count");
  }
  for (int dict = 0; dict < 2; ++dict) {
    auto h = HandBuilt::valid();
    h.dictionaries.clear();
    if (dict == 1) {
      obs::codec::putVarint(h.dictionaries, 1);
      obs::codec::putF64(h.dictionaries, 0.5);
    }
    obs::codec::putVarint(h.dictionaries, kHuge);
    expectCountRejected(h.bytes(), "dictionary size");
  }
  {
    auto h = HandBuilt::valid();
    h.streams[0].clear();
    obs::codec::putZigzag(h.streams[0], 0);
    obs::codec::putVarint(h.streams[0], kHuge);
    expectCountRejected(h.bytes(), "record count");
  }
}

TEST(TraceV2, IndicesOutsideTheirTablesAreRejected) {
  for (int field : {0, 3, 4}) {  // signature, time, duration index
    auto h = HandBuilt::valid();
    h.streams[0].clear();
    obs::codec::putZigzag(h.streams[0], 0);
    obs::codec::putVarint(h.streams[0], 1);
    for (int f = 0; f < 5; ++f) {
      obs::codec::putVarint(h.streams[0], f == field ? 1 : 0);
    }
    expectCountRejected(h.bytes(), "record index outside its table");
  }
}

TEST(TraceV2, ReadErrorsNameTheFile) {
  ScratchDir scratch("torn");
  const std::string& full = realContainer();
  std::filesystem::create_directories(scratch.dir());
  std::ofstream(scratch.dir() / "example.trace", std::ios::binary)
      << full.substr(0, full.size() / 2);
  try {
    readTraces(scratch.dir(), "example");
    FAIL() << "torn container accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("example.trace: trace v2:"), std::string::npos)
        << what;
  }
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
