/**
 * @file
 * The bench command-line contract (bench/common.hh): one flag table,
 * parsed straight into a BenchFlags. Values are strict — no leading
 * whitespace (strtoul would silently skip it), no signs, no trailing
 * junk — and a flag the bench does not honour, or one not in the table
 * at all, is an error rather than silently ignored.
 *
 * parseFlags() returns its error instead of exiting, so every case
 * parses into a fresh BenchFlags and no case depends on another. The
 * KnobParseDeath suite holds the rejection cases; its one death test
 * pins parseCommonFlags' exit-2 contract.
 */

#include <gtest/gtest.h>

#include <climits>
#include <initializer_list>
#include <string>
#include <vector>

#include "bench/common.hh"

namespace firesim
{
namespace
{

using bench::BenchFlags;
using bench::Honours;
using bench::parseUnsignedKnob;

/** Parse `bench <args...>` into @p f; returns the error ("" = ok). */
std::string
parse(std::initializer_list<const char *> args, BenchFlags &f,
      Honours honours = Honours::EveryFlag)
{
    std::vector<const char *> argv = {"bench"};
    argv.insert(argv.end(), args.begin(), args.end());
    return bench::parseFlags(static_cast<int>(argv.size()),
                             const_cast<char **>(argv.data()), honours, f);
}

/** The error for `bench <args...>` parsed into a fresh BenchFlags. */
std::string
flagError(std::initializer_list<const char *> args,
          Honours honours = Honours::EveryFlag)
{
    BenchFlags f;
    return parse(args, f, honours);
}

/** The error parseUnsignedKnob gives for @p text. */
std::string
unsignedError(const char *text)
{
    unsigned v = 0;
    return parseUnsignedKnob("t", text, v);
}

/** @p err is an error that mentions @p fragment. */
::testing::AssertionResult
rejects(const std::string &err, const char *fragment)
{
    if (err.find(fragment) != std::string::npos)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << (err.empty() ? "accepted" : "error '" + err + "'")
           << ", expected an error mentioning '" << fragment << "'";
}

TEST(KnobParse, AcceptsStrictDecimal)
{
    for (auto [text, want] : {std::pair{"0", 0u}, std::pair{"8", 8u},
                              std::pair{"+3", 3u},
                              std::pair{"4294967295", 4294967295u}}) {
        unsigned v = 7;
        EXPECT_EQ(parseUnsignedKnob("t", text, v), "") << text;
        EXPECT_EQ(v, want) << text;
    }
}

TEST(KnobParseDeath, RejectsMalformedValues)
{
    for (const char *text : {"", "abc", "-3", "3x", "+", "4294967296"})
        EXPECT_TRUE(rejects(unsignedError(text), "non-negative integer"))
            << "'" << text << "'";
    unsigned v = 7;
    EXPECT_NE(parseUnsignedKnob("t", "3x", v), "");
    EXPECT_EQ(v, 7u) << "a rejected value leaves the field alone";
}

TEST(KnobParseDeath, RejectsLeadingWhitespace)
{
    // strtoul skips leading whitespace, so " 8" used to parse as 8 in
    // violation of the strict contract. All whitespace shapes fail.
    for (const char *text : {" 8", "\t8", " +8", "8 "})
        EXPECT_TRUE(rejects(unsignedError(text), "non-negative integer"))
            << "'" << text << "'";
}

TEST(KnobParseDeath, FlagPathRejectsWhitespace)
{
    EXPECT_TRUE(rejects(flagError({"--parallel-hosts= 8"}),
                        "--parallel-hosts"));
    EXPECT_TRUE(rejects(flagError({"--shard-rank=1 "}), "--shard-rank"));
}

TEST(KnobParseDeath, ParseCommonFlagsExitsTwo)
{
    // The returning parser's error reaches the user as "error: ..." on
    // stderr with exit status 2, before any rendezvous.
    EXPECT_EXIT(([] {
                    const char *argv[] = {"bench", "--parallel-hosts=x"};
                    bench::parseCommonFlags(2, const_cast<char **>(argv),
                                            Honours::EveryFlag);
                }()),
                ::testing::ExitedWithCode(2),
                "error: --parallel-hosts expects a non-negative integer");
}

TEST(KnobParse, ParsesIntoTheClusterConfig)
{
    BenchFlags f;
    ASSERT_EQ(parse({"--parallel-hosts=4", "--shards=2", "--shard-rank=1",
                     "--shard-connect=h:9000", "--checkpoint=c.snap",
                     "--checkpoint-every=200", "--restore=r.snap"},
                    f),
              "");
    EXPECT_EQ(f.cluster.parallelHosts, 4u);
    EXPECT_EQ(f.cluster.shard.shards, 2u);
    EXPECT_EQ(f.cluster.shard.rank, 1u);
    EXPECT_EQ(f.checkpointPath, "c.snap");
    EXPECT_EQ(f.checkpointEvery, 200u);
    EXPECT_EQ(f.restorePath, "r.snap");

    // A later flag overrides an earlier one; --parallel-hosts=0 means 1.
    BenchFlags g;
    ASSERT_EQ(parse({"--parallel-hosts=4", "--parallel-hosts=0"}, g), "");
    EXPECT_EQ(g.cluster.parallelHosts, 1u);

    // No flags: exactly the ClusterConfig defaults.
    BenchFlags d;
    ASSERT_EQ(parse({}, d), "");
    ClusterConfig cc;
    EXPECT_EQ(d.cluster.parallelHosts, cc.parallelHosts);
    EXPECT_EQ(d.cluster.shard.shmRingBytes, cc.shard.shmRingBytes);
    EXPECT_EQ(d.cluster.hart.decodeCacheEntries, cc.hart.decodeCacheEntries);
    EXPECT_TRUE(d.checkpointPath.empty());
}

TEST(KnobParseDeath, UnknownArgumentsAreRejected)
{
    // A typo used to be ignored and the run measured the default
    // experiment.
    EXPECT_TRUE(rejects(flagError({"--paralel-hosts=4"}),
                        "bench does not support --paralel-hosts"));
    EXPECT_TRUE(rejects(flagError({"stray"}), "does not support stray"));
    // A value on the bare switch, and a valued flag without one.
    EXPECT_TRUE(rejects(flagError({"--flight-recorder=on"}),
                        "--flight-recorder takes no value"));
    EXPECT_TRUE(rejects(flagError({"--parallel-hosts"}),
                        "--parallel-hosts expects --parallel-hosts=N"));
    EXPECT_TRUE(rejects(flagError({"--checkpoint"}), "--checkpoint"));
}

TEST(KnobParseDeath, UnhonouredFlagsAreRejected)
{
    EXPECT_TRUE(rejects(flagError({"--checkpoint=x"}, Honours::HostsOnly),
                        "bench does not support --checkpoint"));
    EXPECT_EQ(flagError({"--parallel-hosts=2"}, Honours::HostsOnly), "");
    EXPECT_TRUE(rejects(flagError({"--parallel-hosts=2"},
                                  Honours::ShmRingOnly),
                        "it honours only --shard-shm-ring"));
    EXPECT_EQ(flagError({"--shard-shm-ring=65536"}, Honours::ShmRingOnly),
              "");
    EXPECT_TRUE(rejects(flagError({"--shards=1"}, Honours::None),
                        "does not support --shards: it takes no flags"));
    EXPECT_EQ(flagError({}, Honours::None), "");

    // SingleProcess honours every flag but --shards above 1.
    EXPECT_EQ(flagError({"--shards=1", "--checkpoint=x"},
                        Honours::SingleProcess),
              "");
    EXPECT_TRUE(rejects(flagError({"--shards=2", "--shard-rank=0"},
                                  Honours::SingleProcess),
                        "bench does not support --shards=2: its workload "
                        "needs the whole cluster in one process"));
}

TEST(KnobParseDeath, ShardConnectDemandsHostColonPort)
{
    for (const char *flag : {"--shard-connect=nohost", "--shard-connect=:9000",
                             "--shard-connect=a:b:c"})
        EXPECT_TRUE(rejects(flagError({flag}), "HOST:PORT")) << flag;
    EXPECT_TRUE(rejects(flagError({"--shard-connect=h:port"}),
                        "non-negative integer"));
    EXPECT_TRUE(rejects(flagError({"--shard-connect=h:0"}), "1, 65535"));
    EXPECT_TRUE(rejects(flagError({"--shard-connect=h:70000"}),
                        "1, 65535"));
}

TEST(KnobParseDeath, ShardFlagCrossValidation)
{
    EXPECT_TRUE(rejects(flagError({"--shards=2", "--shard-rank=2",
                                   "--shard-connect=h:9000"}),
                        "out of range"));
    EXPECT_TRUE(rejects(flagError({"--shards=2"}), "needs --shard-connect"));
    EXPECT_TRUE(rejects(flagError({"--shards=0"}), "at least 1"));
    EXPECT_TRUE(rejects(flagError({"--checkpoint-every=5"}),
                        "--checkpoint-every=5 needs --checkpoint=PATH"));
}

TEST(KnobParse, ShardConnectRoundTrips)
{
    BenchFlags f;
    ASSERT_EQ(parse({"--shard-connect=10.1.2.3:9000"}, f), "");
    EXPECT_EQ(f.cluster.shard.connectHost, "10.1.2.3");
    EXPECT_EQ(f.cluster.shard.basePort, 9000u);
}

TEST(KnobParseDeath, ShardConnectTimeoutMustFitAnInt)
{
    // The transport keeps the deadline in an int: anything above
    // INT_MAX used to wrap negative and silently drop the deadline.
    EXPECT_TRUE(rejects(flagError({"--shard-connect-timeout=2147483648"}),
                        "--shard-connect-timeout"));
    EXPECT_TRUE(rejects(flagError({"--shard-connect-timeout=4294967295"}),
                        "at most 2147483647"));

    BenchFlags f;
    ASSERT_EQ(parse({"--shard-connect-timeout=2147483647"}, f), "");
    EXPECT_EQ(f.cluster.shard.connectTimeoutMs, INT_MAX);
}

TEST(KnobParse, ShardTransportRoundTrips)
{
    BenchFlags f;
    EXPECT_EQ(f.cluster.shard.transport, TransportKind::Auto);
    for (auto [flag, kind] :
         {std::pair{"--shard-transport=shm", TransportKind::Shm},
          std::pair{"--shard-transport=tcp", TransportKind::Tcp},
          std::pair{"--shard-transport=unix", TransportKind::Unix},
          std::pair{"--shard-transport=auto", TransportKind::Auto}}) {
        ASSERT_EQ(parse({flag}, f), "");
        EXPECT_EQ(f.cluster.shard.transport, kind) << flag;
    }
    ASSERT_EQ(parse({"--shard-shm-ring=65536"}, f), "");
    EXPECT_EQ(f.cluster.shard.shmRingBytes, 65536u);
}

TEST(KnobParseDeath, ShardTransportIsStrict)
{
    EXPECT_TRUE(rejects(flagError({"--shard-transport=SHM"}),
                        "auto, shm, tcp, or unix"));
    // loopback is a real TransportKind but test-only: the knob parser
    // must not accept it from the command line.
    for (const char *flag : {"--shard-transport=pcie", "--shard-transport=",
                             "--shard-transport=loopback"})
        EXPECT_TRUE(rejects(flagError({flag}), "--shard-transport")) << flag;
    EXPECT_TRUE(rejects(flagError({"--shard-shm-ring=1M"}),
                        "--shard-shm-ring"));
    EXPECT_TRUE(rejects(flagError({"--shard-shm-ring=0"}), "at least 1"));
}

TEST(KnobParse, StragglerAlphaRoundTrips)
{
    BenchFlags f;
    EXPECT_DOUBLE_EQ(f.cluster.monitor.ewmaAlpha, 0.2)
        << "the monitor's default EWMA weight";
    for (auto [flag, want] : {std::pair{"--straggler-alpha=0.5", 0.5},
                              std::pair{"--straggler-alpha=1.0", 1.0},
                              std::pair{"--straggler-alpha=.25", 0.25}}) {
        ASSERT_EQ(parse({flag}, f), "");
        EXPECT_DOUBLE_EQ(f.cluster.monitor.ewmaAlpha, want) << flag;
    }
}

TEST(KnobParseDeath, StragglerAlphaDemandsUnitInterval)
{
    // The monitor folds alpha into a /256 fixed-point weight whose
    // complement underflows outside (0, 1]; the knob rejects those
    // values outright rather than silently clamping.
    for (const char *flag : {"--straggler-alpha=0", "--straggler-alpha=0.0",
                             "--straggler-alpha=1.5"})
        EXPECT_TRUE(rejects(flagError({flag}), "value in")) << flag;
    for (const char *flag :
         {"--straggler-alpha=-0.2", "--straggler-alpha=fast",
          "--straggler-alpha= 0.5", "--straggler-alpha=0.5x",
          "--straggler-alpha="})
        EXPECT_TRUE(rejects(flagError({flag}), "--straggler-alpha")) << flag;
}

TEST(KnobParse, ObservabilityFlagsRoundTrip)
{
    BenchFlags f;
    ASSERT_EQ(parse({"--heartbeat-every=64", "--status-interval=10",
                     "--metrics-file=/tmp/fs.prom",
                     "--flight-recorder-depth=1024"},
                    f),
              "");
    EXPECT_EQ(f.cluster.monitor.heartbeatEvery, 64u);
    EXPECT_EQ(f.cluster.monitor.statusIntervalSec, 10u);
    EXPECT_EQ(f.cluster.monitor.metricsPath, "/tmp/fs.prom");
    EXPECT_EQ(f.cluster.flightRecorder.depth, 1024u);
    // The bare switch must not be shadowed by its =N-suffixed sibling
    // (both start with "--flight-recorder").
    EXPECT_FALSE(f.cluster.flightRecorder.enabled);
    ASSERT_EQ(parse({"--flight-recorder"}, f), "");
    EXPECT_TRUE(f.cluster.flightRecorder.enabled);
    EXPECT_TRUE(f.cluster.flightRecorder.installSignalHandler);
    EXPECT_EQ(f.cluster.flightRecorder.depth, 1024u);
}

TEST(KnobParseDeath, ObservabilityFlagsShareTheStrictParser)
{
    EXPECT_TRUE(rejects(flagError({"--heartbeat-every=8x"}),
                        "--heartbeat-every"));
    EXPECT_TRUE(rejects(flagError({"--status-interval= 5"}),
                        "--status-interval"));
    EXPECT_TRUE(rejects(flagError({"--flight-recorder-depth=abc"}),
                        "--flight-recorder-depth"));
    // Depth 0 parses but fails cross-validation: a zero-slot ring
    // records nothing and the FlightRecorder refuses to build one.
    EXPECT_TRUE(rejects(flagError({"--flight-recorder-depth=0"}),
                        "at least 1"));
}

TEST(KnobParse, DecodeCacheFlagsRoundTrip)
{
    // Default: on, 32Ki entries.
    BenchFlags f;
    EXPECT_TRUE(f.cluster.hart.decodeCache);
    ASSERT_EQ(parse({"--decode-cache=off"}, f), "");
    EXPECT_FALSE(f.cluster.hart.decodeCache);
    ASSERT_EQ(parse({"--decode-cache=on"}, f), "");
    EXPECT_TRUE(f.cluster.hart.decodeCache);
    // The =N-suffixed sibling must not be swallowed by the shorter
    // name (both start with "--decode-cache").
    ASSERT_EQ(parse({"--decode-cache-entries=4096"}, f), "");
    EXPECT_EQ(f.cluster.hart.decodeCacheEntries, 4096u);
    EXPECT_TRUE(f.cluster.hart.decodeCache);
}

TEST(KnobParseDeath, DecodeCacheFlagIsStrictOnOff)
{
    for (const char *flag :
         {"--decode-cache=1", "--decode-cache=ON", "--decode-cache=",
          "--decode-cache= on", "--decode-cache=off "})
        EXPECT_TRUE(rejects(flagError({flag}), "on or off")) << flag;
}

TEST(KnobParseDeath, DecodeCacheEntriesShareTheStrictParser)
{
    for (const char *flag :
         {"--decode-cache-entries=-1", "--decode-cache-entries=abc",
          "--decode-cache-entries= 8", "--decode-cache-entries=8 "})
        EXPECT_TRUE(rejects(flagError({flag}), "--decode-cache-entries"))
            << flag;
    // 0 parses but fails cross-validation: a zero-entry cache can
    // serve nothing.
    EXPECT_TRUE(rejects(flagError({"--decode-cache-entries=0"}),
                        "at least 1"));
}

} // namespace
} // namespace firesim
