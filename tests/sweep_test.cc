/**
 * @file
 * Tests for the sweep-spec subsystem: spec parsing/serialization,
 * shard partitioning edge cases (N=1, N > cells, empty shards), the
 * header-once CSV merge, end-to-end shard/merge round-trips through
 * runSweep, the dry-run cell listing, and the memoized TraceStore —
 * hit/miss accounting, compute-once behaviour under concurrent
 * access, failure propagation to concurrent waiters, and the on-disk
 * cache (cross-store exactly-once generation, corruption fallback).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runner/sweep_runner.h"
#include "runner/sweep_spec.h"
#include "workloads/trace_gen.h"
#include "workloads/trace_store.h"

namespace rubik {
namespace {

SweepSpec
smallSpec()
{
    SweepSpec spec;
    spec.apps = {"masstree", "xapian"};
    spec.loads = {0.3, 0.5};
    spec.policies = {"rubik", "static"};
    spec.seeds = {42, 43};
    spec.requests = 400;
    return spec;
}

TEST(SweepSpec, CellEnumerationOrder)
{
    const SweepSpec spec = smallSpec();
    ASSERT_EQ(spec.numCells(), 16u);

    // Apps outermost, then loads, policies, seeds innermost.
    const SweepCell first = spec.cell(0);
    EXPECT_EQ(first.app, "masstree");
    EXPECT_EQ(first.load, 0.3);
    EXPECT_EQ(first.policy, "rubik");
    EXPECT_EQ(first.seed, 42u);

    const SweepCell second = spec.cell(1);
    EXPECT_EQ(second.seed, 43u);
    EXPECT_EQ(second.policy, "rubik");

    const SweepCell last = spec.cell(15);
    EXPECT_EQ(last.app, "xapian");
    EXPECT_EQ(last.load, 0.5);
    EXPECT_EQ(last.policy, "static");
    EXPECT_EQ(last.seed, 43u);

    EXPECT_THROW(spec.cell(16), std::runtime_error);
}

TEST(SweepSpec, SerializeParseRoundTrip)
{
    SweepSpec spec = smallSpec();
    spec.fast = true;
    spec.boundMs = 1.25;
    spec.transitionUs = 130.0;

    const SweepSpec parsed = SweepSpec::parse(spec.serialize());
    EXPECT_EQ(parsed.apps, spec.apps);
    EXPECT_EQ(parsed.loads, spec.loads);
    EXPECT_EQ(parsed.policies, spec.policies);
    EXPECT_EQ(parsed.seeds, spec.seeds);
    EXPECT_EQ(parsed.requests, spec.requests);
    EXPECT_EQ(parsed.fast, spec.fast);
    EXPECT_EQ(parsed.boundMs, spec.boundMs);
    EXPECT_EQ(parsed.transitionUs, spec.transitionUs);
}

TEST(SweepSpec, ParseAcceptsCommentsAndWhitespace)
{
    const SweepSpec spec = SweepSpec::parse(
        "# a comment\n"
        "  apps =  masstree , moses \n"
        "loads = 0.4\n"
        "policies = rubik\n"
        "\n"
        "seeds = 7   # trailing comment\n");
    ASSERT_EQ(spec.apps.size(), 2u);
    EXPECT_EQ(spec.apps[1], "moses");
    EXPECT_EQ(spec.seeds, std::vector<uint64_t>{7});
}

TEST(SweepSpec, ParseRejectsMalformedInput)
{
    EXPECT_THROW(SweepSpec::parse("no equals sign\n"),
                 std::runtime_error);
    EXPECT_THROW(SweepSpec::parse("bogus_key = 1\n"),
                 std::runtime_error);
    EXPECT_THROW(SweepSpec::parse("loads = fast\n"),
                 std::runtime_error);
    // Structurally empty specs fail validation.
    EXPECT_THROW(SweepSpec::parse(""), std::runtime_error);
    // Loads outside (0, 1.5).
    EXPECT_THROW(SweepSpec::parse("apps = masstree\n"
                                  "loads = 2.0\n"
                                  "policies = rubik\n"),
                 std::runtime_error);
    // Non-finite numbers never validate (NaN fails every range test).
    EXPECT_THROW(SweepSpec::parse("apps = masstree\n"
                                  "loads = nan\n"
                                  "policies = rubik\n"),
                 std::runtime_error);
    EXPECT_THROW(SweepSpec::parse("apps = masstree\n"
                                  "loads = 0.4\n"
                                  "policies = rubik\n"
                                  "bound_ms = inf\n"),
                 std::runtime_error);
    // requests is a strict integer; seeds reject sign-wrapping.
    EXPECT_THROW(SweepSpec::parse("apps = masstree\n"
                                  "loads = 0.4\n"
                                  "policies = rubik\n"
                                  "requests = 9000.7\n"),
                 std::runtime_error);
    EXPECT_THROW(SweepSpec::parse("apps = masstree\n"
                                  "loads = 0.4\n"
                                  "policies = rubik\n"
                                  "requests = 5000000000\n"),
                 std::runtime_error);
    EXPECT_THROW(SweepSpec::parse("apps = masstree\n"
                                  "loads = 0.4\n"
                                  "policies = rubik\n"
                                  "seeds = -1\n"),
                 std::runtime_error);
}

TEST(SweepSpec, ValidateRejectsNonFiniteFields)
{
    SweepSpec spec = smallSpec();
    spec.loads = {std::numeric_limits<double>::quiet_NaN()};
    EXPECT_THROW(spec.validate(), std::runtime_error);

    spec = smallSpec();
    spec.boundMs = std::numeric_limits<double>::infinity();
    EXPECT_THROW(spec.validate(), std::runtime_error);

    spec = smallSpec();
    spec.transitionUs = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(spec.validate(), std::runtime_error);
}

TEST(SweepSpec, FastSizingMatchesBenchConvention)
{
    SweepSpec spec = smallSpec();
    spec.requests = 9000;
    EXPECT_EQ(spec.effectiveRequests(), 9000);
    spec.fast = true;
    EXPECT_EQ(spec.effectiveRequests(), 2250);
    spec.requests = 100; // floor at 200
    EXPECT_EQ(spec.effectiveRequests(), 200);
}

TEST(ShardRange, SingleShardOwnsEverything)
{
    const ShardRange r = shardRange(45, 0, 1);
    EXPECT_EQ(r.begin, 0u);
    EXPECT_EQ(r.end, 45u);
    EXPECT_FALSE(r.empty());
}

TEST(ShardRange, PartitionIsExactAndBalanced)
{
    for (std::size_t cells : {0u, 1u, 7u, 45u, 100u}) {
        for (int n : {1, 2, 3, 7, 16}) {
            std::size_t covered = 0, max_size = 0, min_size = cells;
            std::size_t prev_end = 0;
            for (int i = 0; i < n; ++i) {
                const ShardRange r = shardRange(cells, i, n);
                EXPECT_EQ(r.begin, prev_end); // contiguous, in order
                prev_end = r.end;
                covered += r.size();
                max_size = std::max(max_size, r.size());
                min_size = std::min(min_size, r.size());
            }
            EXPECT_EQ(prev_end, cells);
            EXPECT_EQ(covered, cells); // every cell exactly once
            EXPECT_LE(max_size - min_size, 1u); // balanced
        }
    }
}

TEST(ShardRange, MoreShardsThanCellsYieldsEmptyShards)
{
    int empty = 0, occupied = 0;
    for (int i = 0; i < 10; ++i) {
        const ShardRange r = shardRange(3, i, 10);
        EXPECT_LE(r.size(), 1u);
        r.empty() ? ++empty : ++occupied;
    }
    EXPECT_EQ(occupied, 3);
    EXPECT_EQ(empty, 7);
}

TEST(ShardRange, RejectsOutOfRangeArguments)
{
    EXPECT_THROW(shardRange(10, 0, 0), std::runtime_error);
    EXPECT_THROW(shardRange(10, -1, 3), std::runtime_error);
    EXPECT_THROW(shardRange(10, 3, 3), std::runtime_error);
}

TEST(ShardRange, ParseShardArg)
{
    int shard = -1, num = -1;
    EXPECT_TRUE(parseShardArg("0/3", &shard, &num));
    EXPECT_EQ(shard, 0);
    EXPECT_EQ(num, 3);
    EXPECT_TRUE(parseShardArg("6/7", &shard, &num));
    EXPECT_EQ(shard, 6);

    EXPECT_FALSE(parseShardArg("3/3", &shard, &num));  // i >= N
    EXPECT_FALSE(parseShardArg("-1/3", &shard, &num));
    EXPECT_FALSE(parseShardArg("1/0", &shard, &num));
    EXPECT_FALSE(parseShardArg("1", &shard, &num));
    EXPECT_FALSE(parseShardArg("a/b", &shard, &num));
    EXPECT_FALSE(parseShardArg("1/2x", &shard, &num));
}

TEST(MergeCsv, HeaderOnceShardsConcatenate)
{
    // The writer convention: only shard 0 carries the header.
    const std::string merged = mergeCsvShards(
        {"h\nrow0\n", "row1\n", "row2\nrow3\n"});
    EXPECT_EQ(merged, "h\nrow0\nrow1\nrow2\nrow3\n");
}

TEST(MergeCsv, DropsRepeatedHeaders)
{
    // Full per-shard CSVs (each with the header) also merge cleanly.
    const std::string merged =
        mergeCsvShards({"h\nrow0\n", "h\nrow1\n", "h\n"});
    EXPECT_EQ(merged, "h\nrow0\nrow1\n");
}

TEST(MergeCsv, HandlesEmptyShards)
{
    EXPECT_EQ(mergeCsvShards({"h\n", "", "row\n", ""}), "h\nrow\n");
    EXPECT_EQ(mergeCsvShards({"", "row\n"}), "row\n");
    EXPECT_EQ(mergeCsvShards({""}), "");
    EXPECT_THROW(mergeCsvShards({}), std::runtime_error);
}

// End-to-end: shard outputs of a real (tiny) sweep concatenate to the
// unsharded run byte for byte, for N = 1, 2, 3, and N > cells.
TEST(RunSweep, ShardMergeRoundTrip)
{
    SweepSpec spec;
    spec.apps = {"masstree"};
    spec.loads = {0.3, 0.5};
    spec.policies = {"fixed", "static"};
    spec.seeds = {42};
    spec.requests = 300;

    auto run = [&](int shard, int num_shards) {
        std::FILE *f = std::tmpfile();
        EXPECT_NE(f, nullptr);
        runSweep(spec, shard, num_shards, 2, f);
        std::rewind(f);
        std::string text;
        char buf[4096];
        std::size_t got;
        while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
            text.append(buf, got);
        std::fclose(f);
        return text;
    };

    const std::string full = run(0, 1);
    EXPECT_NE(full.find("app,policy,load,seed"), std::string::npos);
    // 4 cells + header.
    EXPECT_EQ(static_cast<int>(
                  std::count(full.begin(), full.end(), '\n')),
              5);

    for (int n : {2, 3, 7}) {
        std::vector<std::string> shards;
        for (int i = 0; i < n; ++i)
            shards.push_back(run(i, n));
        EXPECT_EQ(mergeCsvShards(shards), full) << "N=" << n;
    }
}

TEST(RunSweep, RejectsUnknownAppsAndPolicies)
{
    SweepSpec spec = smallSpec();
    spec.apps = {"nosuchapp"};
    EXPECT_THROW(runSweep(spec, 0, 1, 1, stdout), std::runtime_error);

    spec = smallSpec();
    spec.policies = {"nosuchpolicy"};
    EXPECT_THROW(runSweep(spec, 0, 1, 1, stdout), std::runtime_error);
}

TEST(PolicyNames, KnownPolicyLookup)
{
    EXPECT_TRUE(isKnownPolicy("rubik"));
    EXPECT_TRUE(isKnownPolicy("rubik-nofb"));
    EXPECT_TRUE(isKnownPolicy("boost"));
    EXPECT_TRUE(isKnownPolicy("rubik-thermal"));
    EXPECT_FALSE(isKnownPolicy("distilled"));
    EXPECT_FALSE(isKnownPolicy("Rubik"));
    EXPECT_FALSE(isKnownPolicy(""));
    EXPECT_EQ(knownPolicyNames().size(), 9u);
}

TEST(TraceStore, CountsHitsAndMisses)
{
    TraceStore store;
    const AppProfile app = makeApp(AppId::Masstree);
    const double nominal = 2.4e9;

    const auto a = store.loadTrace(app, 0.4, 300, nominal, 1);
    EXPECT_EQ(store.stats().misses, 1u);
    EXPECT_EQ(store.stats().hits, 0u);

    const auto b = store.loadTrace(app, 0.4, 300, nominal, 1);
    EXPECT_EQ(store.stats().misses, 1u);
    EXPECT_EQ(store.stats().hits, 1u);
    EXPECT_EQ(a.get(), b.get()); // same cached object

    // Any key component change is a distinct trace.
    store.loadTrace(app, 0.5, 300, nominal, 1);
    store.loadTrace(app, 0.4, 301, nominal, 1);
    store.loadTrace(app, 0.4, 300, nominal, 2);
    EXPECT_EQ(store.stats().misses, 4u);
    EXPECT_EQ(store.size(), 4u);

    store.clear();
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.stats().misses, 0u);
}

TEST(TraceStore, MemoizedTraceMatchesDirectGeneration)
{
    TraceStore store;
    const AppProfile app = makeApp(AppId::Xapian);
    const double nominal = 2.4e9;

    const auto cached = store.loadTrace(app, 0.3, 250, nominal, 9);
    const Trace direct = generateLoadTrace(app, 0.3, 250, nominal, 9);
    ASSERT_EQ(cached->size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
        EXPECT_EQ((*cached)[i].arrivalTime, direct[i].arrivalTime);
        EXPECT_EQ((*cached)[i].computeCycles, direct[i].computeCycles);
        EXPECT_EQ((*cached)[i].memoryTime, direct[i].memoryTime);
    }
}

// Many threads asking for the same key: the generator runs exactly
// once and everyone gets the same object.
TEST(TraceStore, ConcurrentAccessComputesOnce)
{
    TraceStore store;
    const TraceKey key{"shared", 0.4, 100, 2.4e9, 1};
    std::atomic<int> generated{0};

    constexpr int kThreads = 16;
    std::vector<std::shared_ptr<const Trace>> results(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            results[i] = store.get(key, [&] {
                ++generated;
                // Widen the race window so contention is real.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
                return Trace{TraceRecord{0.0, 1000.0, 0.0, -1}};
            });
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(generated.load(), 1);
    EXPECT_EQ(store.stats().misses, 1u);
    EXPECT_EQ(store.stats().hits,
              static_cast<uint64_t>(kThreads - 1));
    for (int i = 1; i < kThreads; ++i)
        EXPECT_EQ(results[i].get(), results[0].get());
}

// Concurrent access across distinct keys stays consistent: every key
// generated exactly once, no cross-talk.
TEST(TraceStore, ConcurrentDistinctKeys)
{
    TraceStore store;
    constexpr int kThreads = 8;
    constexpr int kKeys = 20;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int k = 0; k < kKeys; ++k) {
                std::string name = "k";
                name += std::to_string(k);
                const TraceKey key{name, 0.1, k, 1e9, 0};
                const auto trace = store.get(key, [&] {
                    return Trace(static_cast<std::size_t>(k + 1));
                });
                EXPECT_EQ(trace->size(),
                          static_cast<std::size_t>(k + 1));
            }
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(store.size(), static_cast<std::size_t>(kKeys));
    EXPECT_EQ(store.stats().misses, static_cast<uint64_t>(kKeys));
    EXPECT_EQ(store.stats().hits,
              static_cast<uint64_t>(kThreads * kKeys - kKeys));
}

// A failed generation propagates to all waiters but is not cached: a
// later request retries and can succeed.
TEST(TraceStore, FailedGenerationIsRetried)
{
    TraceStore store;
    const TraceKey key{"flaky", 0.5, 10, 1e9, 3};
    EXPECT_THROW(store.get(key,
                           []() -> Trace {
                               throw std::runtime_error("boom");
                           }),
                 std::runtime_error);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.stats().generated, 0u);

    const auto trace = store.get(key, [] { return Trace(3); });
    EXPECT_EQ(trace->size(), 3u);
    EXPECT_EQ(store.stats().generated, 1u);
}

// Concurrent waiters on a failing producer all observe the error, the
// entry is not cached, and the next request regenerates successfully.
TEST(TraceStore, ConcurrentWaitersSeeGenerationFailure)
{
    TraceStore store;
    const TraceKey key{"flaky", 0.5, 10, 1e9, 4};
    constexpr int kThreads = 8;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&] {
            try {
                store.get(key, [&]() -> Trace {
                    // Widen the window so waiters really block.
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
                    throw std::runtime_error("boom");
                });
            } catch (const std::runtime_error &) {
                ++failures;
            }
        });
    }
    for (auto &t : threads)
        t.join();

    // Every thread saw the error: the single producer's waiters share
    // its exception, and threads arriving after the uncache retried
    // the (still failing) generation themselves.
    EXPECT_EQ(failures.load(), kThreads);
    EXPECT_EQ(store.size(), 0u);

    const auto trace = store.get(key, [] { return Trace(5); });
    EXPECT_EQ(trace->size(), 5u);
}

/// Scratch directory under /tmp, removed at scope exit.
struct ScratchDir
{
    ScratchDir()
    {
        char tmpl[] = "/tmp/rubik_sweep_test_XXXXXX";
        if (mkdtemp(tmpl))
            path = tmpl;
    }
    ~ScratchDir()
    {
        if (!path.empty()) {
            std::error_code ec;
            std::filesystem::remove_all(path, ec);
        }
    }
    std::string path;
};

TEST(TraceStoreDisk, CacheFileNameIsDeterministicAndKeyed)
{
    const TraceKey key{"masstree", 0.4, 300, 2.4e9, 1};
    const std::string name = TraceStore::cacheFileName(key);
    EXPECT_EQ(name, TraceStore::cacheFileName(key));
    EXPECT_NE(name.find("masstree-"), std::string::npos);
    EXPECT_NE(name.find(".rtrace"), std::string::npos);

    // Every key component participates in the name.
    for (const TraceKey &other :
         {TraceKey{"xapian", 0.4, 300, 2.4e9, 1},
          TraceKey{"masstree", 0.5, 300, 2.4e9, 1},
          TraceKey{"masstree", 0.4, 301, 2.4e9, 1},
          TraceKey{"masstree", 0.4, 300, 2.0e9, 1},
          TraceKey{"masstree", 0.4, 300, 2.4e9, 2}}) {
        EXPECT_NE(name, TraceStore::cacheFileName(other));
    }

    // Path-hostile app names sanitize but stay distinct via the hash.
    const TraceKey evil{"../../etc/passwd", 0.4, 300, 2.4e9, 1};
    const std::string evil_name = TraceStore::cacheFileName(evil);
    EXPECT_EQ(evil_name.find('/'), std::string::npos);
}

TEST(TraceStoreDisk, SecondStoreLoadsFromDiskWithoutGenerating)
{
    ScratchDir dir;
    ASSERT_FALSE(dir.path.empty());
    const TraceKey key{"disk", 0.4, 50, 1e9, 7};
    const Trace canonical{TraceRecord{0.25, 500.0, 1e-5, 1},
                          TraceRecord{0.5, 900.0, 0.0, 0}};

    TraceStore first;
    first.setCacheDir(dir.path);
    EXPECT_EQ(first.cacheDir(), dir.path);
    const auto produced =
        first.get(key, [&] { return canonical; });
    EXPECT_EQ(first.stats().generated, 1u);
    EXPECT_EQ(first.stats().diskWrites, 1u);

    // A second store (a new process, in spirit) finds it on disk.
    TraceStore second;
    second.setCacheDir(dir.path);
    const auto loaded = second.get(key, [&]() -> Trace {
        throw std::runtime_error("must not regenerate");
    });
    EXPECT_EQ(second.stats().generated, 0u);
    EXPECT_EQ(second.stats().diskHits, 1u);
    ASSERT_EQ(loaded->size(), canonical.size());
    for (std::size_t i = 0; i < canonical.size(); ++i) {
        EXPECT_EQ((*loaded)[i].arrivalTime, canonical[i].arrivalTime);
        EXPECT_EQ((*loaded)[i].computeCycles,
                  canonical[i].computeCycles);
        EXPECT_EQ((*loaded)[i].memoryTime, canonical[i].memoryTime);
        EXPECT_EQ((*loaded)[i].classHint, canonical[i].classHint);
    }
}

TEST(TraceStoreDisk, CorruptCacheEntryIsRegenerated)
{
    ScratchDir dir;
    ASSERT_FALSE(dir.path.empty());
    const TraceKey key{"corrupt", 0.4, 50, 1e9, 9};

    TraceStore first;
    first.setCacheDir(dir.path);
    first.get(key, [] { return Trace(4); });

    // Corrupt the cached bytes in place.
    const std::string path =
        dir.path + "/" + TraceStore::cacheFileName(key);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("garbage", f);
    std::fclose(f);

    TraceStore second;
    second.setCacheDir(dir.path);
    const auto regenerated =
        second.get(key, [] { return Trace(4); });
    EXPECT_EQ(regenerated->size(), 4u);
    EXPECT_EQ(second.stats().generated, 1u);
    EXPECT_GE(second.stats().corruptions, 1u);
    EXPECT_EQ(second.stats().diskHits, 0u);

    // The rewrite replaced the corrupt file: a third store disk-hits.
    TraceStore third;
    third.setCacheDir(dir.path);
    third.get(key, []() -> Trace {
        throw std::runtime_error("must not regenerate");
    });
    EXPECT_EQ(third.stats().diskHits, 1u);
}

// Two stores (standing in for two shard processes) racing on the same
// key: the per-key file lock means exactly one generator runs.
TEST(TraceStoreDisk, CrossStoreRaceGeneratesOnce)
{
    ScratchDir dir;
    ASSERT_FALSE(dir.path.empty());
    const TraceKey key{"race", 0.4, 50, 1e9, 11};
    std::atomic<int> generated{0};

    constexpr int kStores = 4;
    std::vector<TraceStore> stores(kStores);
    std::vector<std::thread> threads;
    for (int i = 0; i < kStores; ++i) {
        stores[i].setCacheDir(dir.path);
        threads.emplace_back([&, i] {
            stores[i].get(key, [&] {
                ++generated;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
                return Trace(2);
            });
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(generated.load(), 1);
    uint64_t disk_hits = 0;
    for (const auto &store : stores)
        disk_hits += store.stats().diskHits;
    EXPECT_EQ(disk_hits, static_cast<uint64_t>(kStores - 1));
}

TEST(TraceStoreDisk, RejectsUncreatableCacheDir)
{
    TraceStore store;
    EXPECT_THROW(store.setCacheDir("/proc/nope/cache"),
                 std::runtime_error);
    // Disabled store still works purely in memory.
    store.setCacheDir("");
    const auto t = store.get({"mem", 0.1, 5, 1e9, 0},
                             [] { return Trace(1); });
    EXPECT_EQ(t->size(), 1u);
}

TEST(PrintSweepCells, ListsShardCells)
{
    SweepSpec spec;
    spec.apps = {"masstree"};
    spec.loads = {0.3, 0.5};
    spec.policies = {"fixed", "static"};
    spec.seeds = {42};
    spec.requests = 300;

    auto dryRun = [&](int shard, int num_shards) {
        std::FILE *f = std::tmpfile();
        EXPECT_NE(f, nullptr);
        printSweepCells(spec, shard, num_shards, f);
        std::rewind(f);
        std::string text;
        char buf[4096];
        std::size_t got;
        while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
            text.append(buf, got);
        std::fclose(f);
        return text;
    };

    EXPECT_EQ(dryRun(0, 1), "cell,app,load,policy,seed\n"
                            "0,masstree,0.30,fixed,42\n"
                            "1,masstree,0.30,static,42\n"
                            "2,masstree,0.50,fixed,42\n"
                            "3,masstree,0.50,static,42\n");
    // A shard lists only its cells, with global indices.
    EXPECT_EQ(dryRun(1, 2), "cell,app,load,policy,seed\n"
                            "2,masstree,0.50,fixed,42\n"
                            "3,masstree,0.50,static,42\n");
}

} // namespace
} // namespace rubik
