/**
 * @file
 * Tests for the versioned binary trace format (sim/trace.h): bit-exact
 * round trips (doubles, class hints, non-finite values, empty traces),
 * file save/load, and rejection of every corruption class a reader
 * must detect — truncation, bad magic, unsupported version, size
 * mismatch, and payload bit flips (checksum).
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

#include "sim/trace.h"
#include "workloads/apps.h"
#include "workloads/trace_gen.h"

namespace rubik {
namespace {

Trace
sampleTrace()
{
    Trace trace;
    trace.push_back({0.0, 1.2e6, 3.4e-5, -1});
    trace.push_back({1.5e-3, 7.0e5, 0.0, 0});
    trace.push_back({2.75e-3, 9.9e6, 1.0e-4, 1});
    return trace;
}

void
expectTracesBitIdentical(const Trace &a, const Trace &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrivalTime, b[i].arrivalTime);
        EXPECT_EQ(a[i].computeCycles, b[i].computeCycles);
        EXPECT_EQ(a[i].memoryTime, b[i].memoryTime);
        EXPECT_EQ(a[i].classHint, b[i].classHint);
    }
}

TEST(TraceBinary, RoundTripIsBitExact)
{
    const Trace trace = sampleTrace();
    const Trace back = deserializeTraceBinary(serializeTraceBinary(trace));
    expectTracesBitIdentical(trace, back);
}

TEST(TraceBinary, RoundTripsGeneratedTrace)
{
    const AppProfile app = makeApp(AppId::Masstree);
    Trace trace = generateLoadTrace(app, 0.4, 500, 2.4e9, 42);
    annotateClasses(trace, 0.85, 2.4e9);
    const Trace back = deserializeTraceBinary(serializeTraceBinary(trace));
    expectTracesBitIdentical(trace, back);
}

TEST(TraceBinary, RoundTripsEmptyTrace)
{
    const Trace back = deserializeTraceBinary(serializeTraceBinary({}));
    EXPECT_TRUE(back.empty());
}

TEST(TraceBinary, RoundTripsNonFiniteValues)
{
    Trace trace;
    trace.push_back({std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN(), -0.0, 7});
    const Trace back = deserializeTraceBinary(serializeTraceBinary(trace));
    ASSERT_EQ(back.size(), 1u);
    EXPECT_TRUE(std::isinf(back[0].arrivalTime));
    EXPECT_TRUE(std::isnan(back[0].computeCycles));
    EXPECT_TRUE(std::signbit(back[0].memoryTime));
    EXPECT_EQ(back[0].classHint, 7);
}

TEST(TraceBinary, RejectsTruncatedInput)
{
    const std::string bytes = serializeTraceBinary(sampleTrace());
    EXPECT_THROW(deserializeTraceBinary(""), std::runtime_error);
    EXPECT_THROW(deserializeTraceBinary(bytes.substr(0, 10)),
                 std::runtime_error);
    EXPECT_THROW(deserializeTraceBinary(bytes.substr(0, bytes.size() - 1)),
                 std::runtime_error);
    // Extra bytes are a size mismatch, not silently ignored.
    EXPECT_THROW(deserializeTraceBinary(bytes + "x"), std::runtime_error);
}

TEST(TraceBinary, RejectsBadMagicAndVersion)
{
    std::string bytes = serializeTraceBinary(sampleTrace());
    std::string bad_magic = bytes;
    bad_magic[0] = 'X';
    EXPECT_THROW(deserializeTraceBinary(bad_magic), std::runtime_error);

    std::string bad_version = bytes;
    bad_version[4] = static_cast<char>(kTraceBinaryVersion + 1);
    EXPECT_THROW(deserializeTraceBinary(bad_version),
                 std::runtime_error);
}

TEST(TraceBinary, ChecksumCatchesPayloadBitFlips)
{
    std::string bytes = serializeTraceBinary(sampleTrace());
    bytes[bytes.size() - 3] ^= 0x40; // flip a payload bit
    EXPECT_THROW(deserializeTraceBinary(bytes), std::runtime_error);
}

TEST(TraceBinary, MetaRoundTripsAndIsChecksummed)
{
    const Trace trace = sampleTrace();
    const std::string meta = "app=masstree load=0.4 seed=7";
    const std::string bytes = serializeTraceBinary(trace, meta);

    const TraceBinaryHeader h = parseTraceBinaryHeader(bytes);
    EXPECT_EQ(h.version, kTraceBinaryVersion);
    EXPECT_EQ(h.records, trace.size());
    EXPECT_EQ(h.meta, meta);
    EXPECT_EQ(h.totalBytes, bytes.size());

    // The header and meta parse from a prefix, without the payload.
    const TraceBinaryHeader prefix =
        parseTraceBinaryHeader(bytes.substr(0, 28 + meta.size()));
    EXPECT_EQ(prefix.meta, meta);

    expectTracesBitIdentical(trace, deserializeTraceBinary(bytes));

    // The checksum covers the meta: a meta bit flip is corruption.
    std::string corrupted = bytes;
    corrupted[28] ^= 0x01; // first meta byte
    EXPECT_THROW(deserializeTraceBinary(corrupted), std::runtime_error);
}

TEST(TraceBinary, GarbageCountDoesNotAllocate)
{
    // A header advertising 2^56 records but carrying no payload must
    // fail on the size check, before any reserve.
    std::string bytes = serializeTraceBinary({});
    bytes[15] = 0x7f; // top byte of the count field
    EXPECT_THROW(deserializeTraceBinary(bytes), std::runtime_error);
}

TEST(TraceBinary, FileRoundTrip)
{
    char tmpl[] = "/tmp/rubik_trace_io_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    const std::string path = std::string(tmpl) + "/t.rtrace";

    const Trace trace = sampleTrace();
    saveTraceBinary(trace, path);
    expectTracesBitIdentical(trace, loadTraceBinary(path));

    EXPECT_THROW(loadTraceBinary(std::string(tmpl) + "/missing"),
                 std::runtime_error);

    // Truncate the file: load must throw, not return a partial trace.
    std::FILE *f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    ASSERT_EQ(truncate(path.c_str(), 30), 0);
    EXPECT_THROW(loadTraceBinary(path), std::runtime_error);

    std::remove(path.c_str());
    rmdir(tmpl);
}

} // namespace
} // namespace rubik
