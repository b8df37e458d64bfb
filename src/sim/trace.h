#ifndef RUBIK_SIM_TRACE_H
#define RUBIK_SIM_TRACE_H

/**
 * @file
 * Request traces: per-request arrival times and compute/memory demands.
 *
 * Traces decouple workload generation from execution so that every scheme
 * (Rubik, the oracles, fixed frequency) sees the *same* arrivals and
 * demands — this mirrors the paper's trace-driven characterization
 * (Sec. 5.3), where per-request arrival times, core cycles, and
 * memory-bound times are captured in zsim and replayed under different
 * schemes.
 */

#include <cstdint>
#include <string>
#include <vector>

namespace rubik {

/// One trace entry: a request's arrival time and demands.
struct TraceRecord
{
    double arrivalTime = 0.0;    ///< Seconds.
    double computeCycles = 0.0;  ///< Compute demand (cycles).
    double memoryTime = 0.0;     ///< Memory-bound time (s).
    int classHint = -1;          ///< Optional request-class hint.

    /// Service time at a fixed frequency (no queuing).
    double serviceTime(double freq) const
    {
        return computeCycles / freq + memoryTime;
    }
};

using Trace = std::vector<TraceRecord>;

/**
 * Annotate a trace with binary class hints: class 1 ("long") for requests
 * whose nominal service time exceeds the given quantile of the trace,
 * class 0 otherwise. This plays the role of Adrenaline's application-
 * level hints for the hybrid controller (core/rubik_boost.h).
 */
void annotateClasses(Trace &trace, double quantile, double nominal_freq);

/// Mean service time of the trace at the given frequency.
double traceMeanServiceTime(const Trace &trace, double freq);

/// Duration covered by the arrivals (last arrival - first arrival).
double traceDuration(const Trace &trace);

/// Save to a simple CSV (arrival,cycles,memtime); throws via fatal() on IO.
void saveTrace(const Trace &trace, const std::string &path);

/// Load a trace saved by saveTrace.
Trace loadTrace(const std::string &path);

/**
 * Versioned binary trace format (`.rtrace`), written by `rubik_cli
 * trace gen` and `trace import` and read by the serve daemon's replay,
 * so traces move between processes cheaply and corruption is detected.
 *
 * Layout: a 28-byte fixed header — magic "RTRB", format version,
 * record count, FNV-1a checksum, meta length — followed by a
 * self-describing meta string (free text; `trace gen` records its
 * generation key, e.g. `app=masstree load=0.4 ...`),
 * then one packed record (arrivalTime, computeCycles, memoryTime,
 * classHint) per request. The checksum covers meta + payload, so a
 * reader detects corruption in either. Doubles are stored bit-exact,
 * so serialize/deserialize round-trips traces identically, including
 * class hints and non-finite values.
 *
 * Unlike saveTrace/loadTrace (which fatal() on IO), the binary API
 * throws std::runtime_error on short, mis-tagged, or checksum-failing
 * input so callers (the serve daemon's replay) can report it cleanly.
 */
inline constexpr uint32_t kTraceBinaryVersion = 2;

/// FNV-1a 64-bit hash — the binary format's payload checksum, also
/// the sweep ledger's record checksum (runner/ledger.h).
/// Passing a previous result as `seed` continues the chain:
/// fnv1a64(a+b) == fnv1a64(b, n, fnv1a64(a, m)).
uint64_t fnv1a64(const void *data, std::size_t size,
                 uint64_t seed = 14695981039346656037ull);

/// Encode `trace` into the versioned binary format; `meta` is an
/// arbitrary self-describing string stored in the header (readable by
/// parseTraceBinaryHeader without decoding the payload).
std::string serializeTraceBinary(const Trace &trace,
                                 const std::string &meta = "");

/// Decode serializeTraceBinary output; throws std::runtime_error on a
/// bad magic/version, a size mismatch, or a checksum failure.
Trace deserializeTraceBinary(const std::string &bytes);

/**
 * Header fields of a binary trace, decodable from a file prefix
 * without reading the payload.
 */
struct TraceBinaryHeader
{
    uint32_t version = 0;
    uint64_t records = 0;      ///< Payload record count.
    uint64_t checksum = 0;     ///< FNV-1a over meta + payload.
    std::string meta;          ///< Producer's self-description.
    uint64_t totalBytes = 0;   ///< Full encoded size header+meta+payload.
};

/**
 * Parse the header + meta of a binary trace from `bytes`, which may be
 * just a prefix of the full encoding (the payload is not required and
 * not checksummed here — use deserializeTraceBinary for that). Throws
 * std::runtime_error on a truncated/mis-tagged header or a meta that
 * extends past the provided bytes.
 */
TraceBinaryHeader parseTraceBinaryHeader(const std::string &bytes);

/// Read just the header + meta of a saveTraceBinary file; throws
/// std::runtime_error on IO or a malformed header.
TraceBinaryHeader readTraceBinaryHeader(const std::string &path);

/// Write the binary format to `path`; throws std::runtime_error on IO.
void saveTraceBinary(const Trace &trace, const std::string &path,
                     const std::string &meta = "");

/// Read a saveTraceBinary file; throws std::runtime_error on IO or
/// corruption (any deserializeTraceBinary failure).
Trace loadTraceBinary(const std::string &path);

} // namespace rubik

#endif // RUBIK_SIM_TRACE_H
