/**
 * @file
 * Property tests for the external-trace importer
 * (workloads/trace_import.h): every class of malformed input is
 * rejected with the offending line number in the error message, and a
 * valid import round-trips through the checksummed .rtrace format
 * byte-identically. The CLI entry (`rubik_cli trace import`) is smoke-
 * tested through RUBIK_CLI when the binary is available.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <sys/wait.h>

#include "sim/trace.h"
#include "workloads/trace_import.h"

namespace fs = std::filesystem;

namespace rubik {
namespace {

const char kHeader[] = "arrival_s,compute_cycles,memory_time_s\n";

/// Expect parseTraceCsv to throw with ":<line>:" in the message.
void
expectRejectedAtLine(const std::string &text, int line,
                     const std::string &label)
{
    try {
        parseTraceCsv(text, "test");
        FAIL() << label << ": accepted invalid input";
    } catch (const std::runtime_error &e) {
        const std::string needle =
            ":" + std::to_string(line) + ":";
        EXPECT_NE(std::string(e.what()).find(needle),
                  std::string::npos)
            << label << ": error lacks line " << line << ": "
            << e.what();
    }
}

TEST(TraceImport, AcceptsMinimalValidCsv)
{
    const Trace t = parseTraceCsv(
        std::string(kHeader) +
            "0.001,240000,0.0001\n0.002,360000,0.00015\n",
        "test");
    ASSERT_EQ(t.size(), 2u);
    EXPECT_DOUBLE_EQ(t[0].arrivalTime, 0.001);
    EXPECT_DOUBLE_EQ(t[1].computeCycles, 360000.0);
    EXPECT_EQ(t[0].classHint, -1); // No class column: unclassified.
}

TEST(TraceImport, AcceptsClassColumnAndEqualTimestamps)
{
    const Trace t = parseTraceCsv(
        "arrival_s,compute_cycles,memory_time_s,class\n"
        "0.001,240000,0.0001,0\n"
        "0.001,360000,0.0002,1\n", // Ties are legal (batch arrival).
        "test");
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t[0].classHint, 0);
    EXPECT_EQ(t[1].classHint, 1);
}

TEST(TraceImport, RejectsEveryMalformationWithLineNumber)
{
    const std::string h = kHeader;
    // Header violations land on line 1.
    expectRejectedAtLine("", 1, "empty file");
    expectRejectedAtLine("0.001,240000,0.0001\n", 1,
                         "missing header");
    expectRejectedAtLine("arrival_s,compute_cycles\n", 1,
                         "too few header columns");
    expectRejectedAtLine("time,cycles,mem\n0.1,2,0.1\n", 1,
                         "first column not arrival");

    // Row violations name the offending row.
    expectRejectedAtLine(h + "0.001,240000,0.0001\nnot,a,row\n", 3,
                         "unparsable fields");
    expectRejectedAtLine(h + "0.001,240000\n", 2, "missing field");
    expectRejectedAtLine(h + "0.001,240000,0.0001,7\n", 2,
                         "extra field vs header");
    expectRejectedAtLine(h + "0.001,240000,0.0001\n\n", 3,
                         "blank line");
    expectRejectedAtLine(h + "-0.001,240000,0.0001\n", 2,
                         "negative arrival");
    expectRejectedAtLine(h + "0.002,240000,0.0001\n"
                             "0.001,240000,0.0001\n",
                         3, "non-monotonic timestamps");
    expectRejectedAtLine(h + "0.001,nan,0.0001\n", 2, "NaN cycles");
    expectRejectedAtLine(h + "0.001,240000,inf\n", 2,
                         "infinite memory time");
    expectRejectedAtLine(h + "0.001,-240000,0.0001\n", 2,
                         "negative service demand");
    expectRejectedAtLine(h + "0.001,240000,-0.0001\n", 2,
                         "negative memory time");
    expectRejectedAtLine(
        "arrival_s,compute_cycles,memory_time_s,class\n"
        "0.001,240000,0.0001,x\n",
        2, "unparsable class hint");

    // A dump cut off mid-write fails on its final line.
    expectRejectedAtLine(h + "0.001,240000,0.0001\n0.002,360000", 3,
                         "truncated file");
    expectRejectedAtLine(h.substr(0, h.size() - 1), 1,
                         "header-only truncation");
}

TEST(TraceImport, RejectsHeaderOnlyFile)
{
    expectRejectedAtLine(kHeader, 1, "no records");
}

struct ScratchDir
{
    ScratchDir()
    {
        char tmpl[] = "/tmp/rubik_trace_import_XXXXXX";
        if (mkdtemp(tmpl))
            path = tmpl;
    }
    ~ScratchDir()
    {
        if (!path.empty()) {
            std::error_code ec;
            fs::remove_all(path, ec);
        }
    }
    std::string path;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

TEST(TraceImport, RoundTripsByteIdentically)
{
    // Awkward doubles (subnormal-ish exponents, full precision) and
    // class hints: %.17g printing round-trips IEEE doubles exactly,
    // and the binary format stores them bit-exact, so import ->
    // .rtrace -> load -> serialize must be a fixed point.
    Trace original;
    original.push_back({0.0012345678901234567, 240000.5, 1.25e-4, 0});
    original.push_back({0.0012345678901234567, 360007.0, 0.0, 1});
    original.push_back({0.0099999999999999998, 1.0, 3.0e-300, -1});

    ScratchDir dir;
    const std::string csv = dir.path + "/ext.csv";
    std::FILE *f = std::fopen(csv.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "arrival_s,compute_cycles,memory_time_s,class\n");
    for (const TraceRecord &r : original) {
        std::fprintf(f, "%.17g,%.17g,%.17g,%d\n", r.arrivalTime,
                     r.computeCycles, r.memoryTime, r.classHint);
    }
    std::fclose(f);

    const std::string rtrace = dir.path + "/ext.rtrace";
    const TraceImportResult res = convertTraceCsv(csv, rtrace);
    EXPECT_EQ(res.records, original.size());

    const Trace loaded = loadTraceBinary(rtrace);
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(loaded[i].arrivalTime, original[i].arrivalTime);
        EXPECT_EQ(loaded[i].computeCycles, original[i].computeCycles);
        EXPECT_EQ(loaded[i].memoryTime, original[i].memoryTime);
        EXPECT_EQ(loaded[i].classHint, original[i].classHint);
    }

    // Re-importing the same CSV writes identical bytes (the checksummed
    // encoding is a pure function of the parsed trace and source name).
    const std::string again = dir.path + "/ext2.rtrace";
    std::error_code ec;
    fs::copy_file(csv, dir.path + "/ext2.csv", ec);
    ASSERT_FALSE(ec);
    convertTraceCsv(csv, again);
    EXPECT_EQ(readFile(rtrace), readFile(again));

    // And the header checksum the importer reported is the stored one.
    EXPECT_EQ(readTraceBinaryHeader(rtrace).checksum, res.checksum);
}

TEST(TraceImport, FailedConversionWritesNothing)
{
    ScratchDir dir;
    const std::string csv = dir.path + "/bad.csv";
    std::ofstream(csv) << kHeader << "0.002,1,0.1\n0.001,1,0.1\n";
    const std::string out = dir.path + "/bad.rtrace";
    EXPECT_THROW(convertTraceCsv(csv, out), std::runtime_error);
    EXPECT_FALSE(fs::exists(out));
}

// --- rubik_cli trace import smoke ------------------------------------

int
runCommand(const std::string &cmd)
{
    const int rc = std::system(cmd.c_str());
    return rc == -1 ? -1 : WEXITSTATUS(rc);
}

TEST(TraceImportCli, ImportAndRejectionExitCodes)
{
    const char *cli = std::getenv("RUBIK_CLI");
    if (!cli || !fs::exists(cli))
        GTEST_SKIP() << "RUBIK_CLI not set or missing";

    ScratchDir dir;
    const std::string good = dir.path + "/good.csv";
    std::ofstream(good) << kHeader << "0.001,240000,0.0001\n"
                        << "0.002,360000,0.00015\n";
    const std::string out = dir.path + "/good.rtrace";
    EXPECT_EQ(runCommand("'" + std::string(cli) +
                         "' trace import --in '" + good + "' --out '" +
                         out + "' > /dev/null"),
              0);
    EXPECT_EQ(loadTraceBinary(out).size(), 2u);

    // A malformed dump exits nonzero and names the offending line on
    // stderr; nothing is written. A NaN field, and a timestamp that
    // goes backwards.
    const std::pair<std::string, std::string> bads[] = {
        {"0.001,nan,0.0001\n", ":2:"},
        {"0.002,240000,0.0001\n0.001,240000,0.0001\n", ":3:"},
    };
    for (const auto &[rows, line] : bads) {
        SCOPED_TRACE(rows);
        const std::string bad = dir.path + "/bad.csv";
        std::ofstream(bad) << kHeader << rows;
        const std::string bad_out = dir.path + "/bad.rtrace";
        const std::string err = dir.path + "/err.txt";
        EXPECT_NE(runCommand("'" + std::string(cli) +
                             "' trace import --in '" + bad + "' --out '" +
                             bad_out + "' 2> '" + err + "'"),
                  0);
        EXPECT_FALSE(fs::exists(bad_out));
        EXPECT_NE(readFile(err).find(line), std::string::npos)
            << "stderr lacks the offending line number";
    }
}

} // namespace
} // namespace rubik
