#include "sim/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/error.h"

namespace rubik {

void
annotateClasses(Trace &trace, double quantile, double nominal_freq)
{
    RUBIK_ASSERT(quantile > 0 && quantile < 1, "quantile in (0,1)");
    if (trace.empty())
        return;
    std::vector<double> service;
    service.reserve(trace.size());
    for (const auto &r : trace)
        service.push_back(r.serviceTime(nominal_freq));
    // The rank-th smallest service time: nth_element places exactly
    // the element a full sort would put there.
    const auto rank = std::min(
        static_cast<std::size_t>(quantile *
                                 static_cast<double>(service.size())),
        service.size() - 1);
    const auto nth = service.begin() + static_cast<std::ptrdiff_t>(rank);
    std::nth_element(service.begin(), nth, service.end());
    const double threshold = *nth;
    for (auto &r : trace)
        r.classHint = r.serviceTime(nominal_freq) > threshold ? 1 : 0;
}

double
traceMeanServiceTime(const Trace &trace, double freq)
{
    if (trace.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &r : trace)
        sum += r.serviceTime(freq);
    return sum / static_cast<double>(trace.size());
}

double
traceDuration(const Trace &trace)
{
    if (trace.size() < 2)
        return 0.0;
    return trace.back().arrivalTime - trace.front().arrivalTime;
}

void
saveTrace(const Trace &trace, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot open trace file for writing");
    std::fprintf(f, "arrival_s,compute_cycles,memory_time_s\n");
    for (const auto &r : trace) {
        std::fprintf(f, "%.12g,%.12g,%.12g\n", r.arrivalTime,
                     r.computeCycles, r.memoryTime);
    }
    std::fclose(f);
}

namespace {

constexpr char kTraceMagic[4] = {'R', 'T', 'R', 'B'};
constexpr std::size_t kHeaderBytes = 28;
constexpr std::size_t kRecordBytes = 3 * sizeof(double) + sizeof(int32_t);
// Meta is a short human-readable key description; a length beyond this
// in a header means corruption, not a legitimately huge meta.
constexpr std::size_t kMaxMetaBytes = 1 << 16;

template <typename T>
void
appendRaw(std::string &out, const T &value)
{
    char buf[sizeof(T)];
    std::memcpy(buf, &value, sizeof(T));
    out.append(buf, sizeof(T));
}

template <typename T>
T
readRaw(const char *data)
{
    T value;
    std::memcpy(&value, data, sizeof(T));
    return value;
}

} // anonymous namespace

uint64_t
fnv1a64(const void *data, std::size_t size, uint64_t seed)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    uint64_t hash = seed;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 1099511628211ull;
    }
    return hash;
}

std::string
serializeTraceBinary(const Trace &trace, const std::string &meta)
{
    if (meta.size() > kMaxMetaBytes)
        throw std::runtime_error("binary trace: meta too long");
    std::string payload;
    payload.reserve(trace.size() * kRecordBytes);
    for (const TraceRecord &r : trace) {
        appendRaw(payload, r.arrivalTime);
        appendRaw(payload, r.computeCycles);
        appendRaw(payload, r.memoryTime);
        appendRaw(payload, static_cast<int32_t>(r.classHint));
    }

    // The checksum covers meta + payload as one continued FNV chain —
    // identical to hashing their concatenation, without building it.
    const uint64_t checksum =
        fnv1a64(payload.data(), payload.size(),
                fnv1a64(meta.data(), meta.size()));

    std::string out;
    out.reserve(kHeaderBytes + meta.size() + payload.size());
    out.append(kTraceMagic, sizeof(kTraceMagic));
    appendRaw(out, kTraceBinaryVersion);
    appendRaw(out, static_cast<uint64_t>(trace.size()));
    appendRaw(out, checksum);
    appendRaw(out, static_cast<uint32_t>(meta.size()));
    out += meta;
    out += payload;
    return out;
}

TraceBinaryHeader
parseTraceBinaryHeader(const std::string &bytes)
{
    if (bytes.size() < kHeaderBytes)
        throw std::runtime_error("binary trace: truncated header");
    if (std::memcmp(bytes.data(), kTraceMagic, sizeof(kTraceMagic)) != 0)
        throw std::runtime_error("binary trace: bad magic");
    TraceBinaryHeader h;
    h.version = readRaw<uint32_t>(bytes.data() + 4);
    if (h.version != kTraceBinaryVersion) {
        throw std::runtime_error("binary trace: unsupported version " +
                                 std::to_string(h.version));
    }
    h.records = readRaw<uint64_t>(bytes.data() + 8);
    h.checksum = readRaw<uint64_t>(bytes.data() + 16);
    const auto meta_len = readRaw<uint32_t>(bytes.data() + 24);
    if (meta_len > kMaxMetaBytes)
        throw std::runtime_error("binary trace: meta length corrupt");
    if (bytes.size() < kHeaderBytes + meta_len)
        throw std::runtime_error("binary trace: truncated meta");
    h.meta.assign(bytes, kHeaderBytes, meta_len);
    // Overflow guard: a garbage count must not wrap totalBytes into a
    // plausible size.
    if (h.records >
        (std::numeric_limits<uint64_t>::max() - kHeaderBytes - meta_len) /
            kRecordBytes)
        throw std::runtime_error("binary trace: record count corrupt");
    h.totalBytes = kHeaderBytes + meta_len + h.records * kRecordBytes;
    return h;
}

Trace
deserializeTraceBinary(const std::string &bytes)
{
    const TraceBinaryHeader h = parseTraceBinaryHeader(bytes);
    // Size check precedes any allocation, so a garbage count cannot
    // trigger a huge reserve.
    if (bytes.size() != h.totalBytes)
        throw std::runtime_error("binary trace: size mismatch");
    const std::size_t checked_off = kHeaderBytes;
    if (fnv1a64(bytes.data() + checked_off,
                bytes.size() - checked_off) != h.checksum)
        throw std::runtime_error("binary trace: checksum mismatch");

    Trace trace;
    trace.reserve(h.records);
    const char *p = bytes.data() + kHeaderBytes + h.meta.size();
    for (uint64_t i = 0; i < h.records; ++i) {
        TraceRecord r;
        r.arrivalTime = readRaw<double>(p);
        r.computeCycles = readRaw<double>(p + 8);
        r.memoryTime = readRaw<double>(p + 16);
        r.classHint = readRaw<int32_t>(p + 24);
        trace.push_back(r);
        p += kRecordBytes;
    }
    return trace;
}

TraceBinaryHeader
readTraceBinaryHeader(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        throw std::runtime_error("binary trace: cannot open " + path +
                                 " for reading");
    }
    // Fixed header first, then exactly the meta it advertises — so
    // enumerating a big cache stays a small read per entry, not a
    // kMaxMetaBytes one. parseTraceBinaryHeader re-validates
    // everything, including a short second read (truncated meta).
    std::string bytes(kHeaderBytes, '\0');
    std::size_t got = std::fread(bytes.data(), 1, bytes.size(), f);
    bytes.resize(got);
    if (got == kHeaderBytes) {
        const auto meta_len = readRaw<uint32_t>(bytes.data() + 24);
        if (meta_len > 0 && meta_len <= kMaxMetaBytes) {
            std::string meta(meta_len, '\0');
            got = std::fread(meta.data(), 1, meta.size(), f);
            bytes.append(meta, 0, got);
        }
    }
    const bool read_err = std::ferror(f) != 0;
    std::fclose(f);
    if (read_err)
        throw std::runtime_error("binary trace: read error on " + path);
    return parseTraceBinaryHeader(bytes);
}

void
saveTraceBinary(const Trace &trace, const std::string &path,
                const std::string &meta)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        throw std::runtime_error("binary trace: cannot open " + path +
                                 " for writing");
    }
    const std::string bytes = serializeTraceBinary(trace, meta);
    const bool ok =
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    if (std::fclose(f) != 0 || !ok) {
        std::remove(path.c_str());
        throw std::runtime_error("binary trace: short write to " + path);
    }
}

Trace
loadTraceBinary(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        throw std::runtime_error("binary trace: cannot open " + path +
                                 " for reading");
    }
    std::string bytes;
    char buf[1 << 16];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.append(buf, got);
    const bool read_err = std::ferror(f) != 0;
    std::fclose(f);
    if (read_err)
        throw std::runtime_error("binary trace: read error on " + path);
    return deserializeTraceBinary(bytes);
}

Trace
loadTrace(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        fatal("cannot open trace file for reading");
    Trace trace;
    char header[256];
    if (!std::fgets(header, sizeof(header), f)) {
        std::fclose(f);
        fatal("empty trace file");
    }
    TraceRecord r;
    while (std::fscanf(f, "%lf,%lf,%lf\n", &r.arrivalTime, &r.computeCycles,
                       &r.memoryTime) == 3) {
        trace.push_back(r);
    }
    std::fclose(f);
    return trace;
}

} // namespace rubik
