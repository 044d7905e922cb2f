/**
 * @file
 * Death tests for the bench knob parsers (bench/common.hh): the
 * documented contract is strict — no leading whitespace (strtoul
 * would silently skip it), no signs, no trailing junk — on both the
 * --flag and the FIRESIM_* environment paths, which share the parser.
 */

#include <gtest/gtest.h>

#include <climits>
#include <cstdlib>

#include "bench/common.hh"
#include "manager/cluster.hh"

namespace firesim
{
namespace
{

using bench::parseCommonFlags;
using bench::parseShardConnectKnob;
using bench::parseUnsignedKnob;

/** Run parseCommonFlags on a single fake argv flag. */
void
parseOneFlag(const char *flag)
{
    const char *argv[] = {"bench", flag};
    parseCommonFlags(2, const_cast<char **>(argv));
}

TEST(KnobParse, AcceptsStrictDecimal)
{
    EXPECT_EQ(parseUnsignedKnob("t", "0"), 0u);
    EXPECT_EQ(parseUnsignedKnob("t", "8"), 8u);
    EXPECT_EQ(parseUnsignedKnob("t", "+3"), 3u);
    EXPECT_EQ(parseUnsignedKnob("t", "4294967295"), 4294967295u);
}

TEST(KnobParseDeath, RejectsMalformedValues)
{
    EXPECT_EXIT(parseUnsignedKnob("t", ""),
                ::testing::ExitedWithCode(2), "non-negative integer");
    EXPECT_EXIT(parseUnsignedKnob("t", "abc"),
                ::testing::ExitedWithCode(2), "non-negative integer");
    EXPECT_EXIT(parseUnsignedKnob("t", "-3"),
                ::testing::ExitedWithCode(2), "non-negative integer");
    EXPECT_EXIT(parseUnsignedKnob("t", "3x"),
                ::testing::ExitedWithCode(2), "non-negative integer");
    EXPECT_EXIT(parseUnsignedKnob("t", "+"),
                ::testing::ExitedWithCode(2), "non-negative integer");
    EXPECT_EXIT(parseUnsignedKnob("t", "4294967296"),
                ::testing::ExitedWithCode(2), "non-negative integer");
}

TEST(KnobParseDeath, RejectsLeadingWhitespace)
{
    // strtoul skips leading whitespace, so " 8" used to parse as 8 in
    // violation of the strict contract. All whitespace shapes die now.
    EXPECT_EXIT(parseUnsignedKnob("t", " 8"),
                ::testing::ExitedWithCode(2), "non-negative integer");
    EXPECT_EXIT(parseUnsignedKnob("t", "\t8"),
                ::testing::ExitedWithCode(2), "non-negative integer");
    EXPECT_EXIT(parseUnsignedKnob("t", " +8"),
                ::testing::ExitedWithCode(2), "non-negative integer");
    EXPECT_EXIT(parseUnsignedKnob("t", "8 "),
                ::testing::ExitedWithCode(2), "non-negative integer");
}

TEST(KnobParseDeath, EnvPathSharesTheStrictParser)
{
    // The FIRESIM_* environment variables funnel through the same
    // parser; a whitespace-polluted env var must die, not truncate.
    EXPECT_EXIT(
        {
            setenv("FIRESIM_PARALLEL_HOSTS", " 8", 1);
            parseCommonFlags(0, nullptr);
        },
        ::testing::ExitedWithCode(2), "FIRESIM_PARALLEL_HOSTS");
    EXPECT_EXIT(
        {
            setenv("FIRESIM_SHARDS", "2x", 1);
            parseCommonFlags(0, nullptr);
        },
        ::testing::ExitedWithCode(2), "FIRESIM_SHARDS");
}

TEST(KnobParseDeath, FlagPathRejectsWhitespace)
{
    EXPECT_EXIT(parseOneFlag("--parallel-hosts= 8"),
                ::testing::ExitedWithCode(2), "--parallel-hosts");
    EXPECT_EXIT(parseOneFlag("--shard-rank=1 "),
                ::testing::ExitedWithCode(2), "--shard-rank");
}

TEST(KnobParseDeath, ShardConnectDemandsHostColonPort)
{
    EXPECT_EXIT(parseShardConnectKnob("--shard-connect", "nohost"),
                ::testing::ExitedWithCode(2), "HOST:PORT");
    EXPECT_EXIT(parseShardConnectKnob("--shard-connect", ":9000"),
                ::testing::ExitedWithCode(2), "HOST:PORT");
    EXPECT_EXIT(parseShardConnectKnob("--shard-connect", "a:b:c"),
                ::testing::ExitedWithCode(2), "HOST:PORT");
    EXPECT_EXIT(parseShardConnectKnob("--shard-connect", "h:port"),
                ::testing::ExitedWithCode(2), "non-negative integer");
    EXPECT_EXIT(parseShardConnectKnob("--shard-connect", "h:0"),
                ::testing::ExitedWithCode(2), "1, 65535");
    EXPECT_EXIT(parseShardConnectKnob("--shard-connect", "h:70000"),
                ::testing::ExitedWithCode(2), "1, 65535");
}

TEST(KnobParseDeath, ShardFlagCrossValidation)
{
    // IIFEs: EXPECT_EXIT is a macro, so brace-initializer commas in a
    // plain compound statement would split into macro arguments.
    EXPECT_EXIT(
        ([] {
            const char *argv[] = {"bench", "--shards=2",
                                  "--shard-rank=2",
                                  "--shard-connect=h:9000"};
            parseCommonFlags(4, const_cast<char **>(argv));
        }()),
        ::testing::ExitedWithCode(2), "out of range");
    EXPECT_EXIT(
        ([] {
            // The parser state is process-global; make sure no earlier
            // test's --shard-connect satisfies the check in this child.
            bench::shardBasePortRef() = 0;
            const char *argv[] = {"bench", "--shards=2"};
            parseCommonFlags(2, const_cast<char **>(argv));
        }()),
        ::testing::ExitedWithCode(2), "needs --shard-connect");
    EXPECT_EXIT(parseOneFlag("--shards=0"),
                ::testing::ExitedWithCode(2), "at least 1");
}

TEST(KnobParse, ShardConnectRoundTrips)
{
    parseShardConnectKnob("--shard-connect", "10.1.2.3:9000");
    EXPECT_EQ(bench::shardConnectHostRef(), "10.1.2.3");
    EXPECT_EQ(bench::shardBasePortRef(), 9000u);
}

TEST(KnobParseDeath, ShardConnectTimeoutMustFitAnInt)
{
    // The transport keeps the deadline in an int: anything above
    // INT_MAX used to wrap negative and silently drop the deadline.
    EXPECT_EXIT(parseOneFlag("--shard-connect-timeout=2147483648"),
                ::testing::ExitedWithCode(2), "--shard-connect-timeout");
    EXPECT_EXIT(parseOneFlag("--shard-connect-timeout=4294967295"),
                ::testing::ExitedWithCode(2), "at most 2147483647");
    EXPECT_EXIT(
        {
            setenv("FIRESIM_SHARD_CONNECT_TIMEOUT", "3000000000", 1);
            parseCommonFlags(0, nullptr);
        },
        ::testing::ExitedWithCode(2), "FIRESIM_SHARD_CONNECT_TIMEOUT");

    parseOneFlag("--shard-connect-timeout=2147483647");
    ClusterConfig cc;
    bench::applyClusterFlags(cc);
    EXPECT_EQ(cc.shard.connectTimeoutMs, INT_MAX);
    parseOneFlag("--shard-connect-timeout=0");
}

TEST(KnobParse, ShardTransportRoundTrips)
{
    EXPECT_EQ(bench::shardTransportRef(), TransportKind::Auto);
    parseOneFlag("--shard-transport=shm");
    EXPECT_EQ(bench::shardTransportRef(), TransportKind::Shm);
    parseOneFlag("--shard-transport=tcp");
    EXPECT_EQ(bench::shardTransportRef(), TransportKind::Tcp);
    parseOneFlag("--shard-transport=unix");
    EXPECT_EQ(bench::shardTransportRef(), TransportKind::Unix);
    parseOneFlag("--shard-transport=auto");
    EXPECT_EQ(bench::shardTransportRef(), TransportKind::Auto);
    parseOneFlag("--shard-shm-ring=65536");
    EXPECT_EQ(bench::shardShmRingRef(), 65536u);
}

TEST(KnobParseDeath, ShardTransportIsStrict)
{
    EXPECT_EXIT(parseOneFlag("--shard-transport=SHM"),
                ::testing::ExitedWithCode(2), "auto, shm, tcp, or unix");
    EXPECT_EXIT(parseOneFlag("--shard-transport=pcie"),
                ::testing::ExitedWithCode(2), "--shard-transport");
    EXPECT_EXIT(parseOneFlag("--shard-transport="),
                ::testing::ExitedWithCode(2), "--shard-transport");
    // loopback is a real TransportKind but test-only: the knob parser
    // must not accept it from the command line.
    EXPECT_EXIT(parseOneFlag("--shard-transport=loopback"),
                ::testing::ExitedWithCode(2), "--shard-transport");
    EXPECT_EXIT(parseOneFlag("--shard-shm-ring=1M"),
                ::testing::ExitedWithCode(2), "--shard-shm-ring");
    EXPECT_EXIT(parseOneFlag("--shard-shm-ring=0"),
                ::testing::ExitedWithCode(2), "at least 1");
    EXPECT_EXIT(
        {
            setenv("FIRESIM_SHARD_TRANSPORT", "fast", 1);
            parseCommonFlags(0, nullptr);
        },
        ::testing::ExitedWithCode(2), "FIRESIM_SHARD_TRANSPORT");
}

TEST(KnobParse, ShardPolicyAndProfileFlagsRoundTrip)
{
    EXPECT_EQ(bench::shardPolicyIdRef(), 0u) << "block is the default";
    parseOneFlag("--shard-policy=cost");
    EXPECT_EQ(bench::shardPolicyIdRef(), 1u);
    parseOneFlag("--shard-policy=block");
    EXPECT_EQ(bench::shardPolicyIdRef(), 0u);
    parseOneFlag("--shard-profile-in=/tmp/fs.prof");
    EXPECT_EQ(bench::shardProfileInRef(), "/tmp/fs.prof");
    parseOneFlag("--shard-profile-out=/tmp/fs-out.prof");
    EXPECT_EQ(bench::shardProfileOutRef(), "/tmp/fs-out.prof");
}

TEST(KnobParseDeath, ShardPolicyIsStrict)
{
    EXPECT_EXIT(parseOneFlag("--shard-policy=greedy"),
                ::testing::ExitedWithCode(2), "block or cost");
    EXPECT_EXIT(parseOneFlag("--shard-policy="),
                ::testing::ExitedWithCode(2), "--shard-policy");
    EXPECT_EXIT(parseOneFlag("--shard-policy=Cost"),
                ::testing::ExitedWithCode(2), "block or cost");
    EXPECT_EXIT(
        {
            setenv("FIRESIM_SHARD_POLICY", "roundrobin", 1);
            parseCommonFlags(0, nullptr);
        },
        ::testing::ExitedWithCode(2), "FIRESIM_SHARD_POLICY");
}

TEST(KnobParse, StragglerAlphaRoundTrips)
{
    EXPECT_DOUBLE_EQ(bench::stragglerAlphaRef(), 0.2)
        << "the monitor's default EWMA weight";
    parseOneFlag("--straggler-alpha=0.5");
    EXPECT_DOUBLE_EQ(bench::stragglerAlphaRef(), 0.5);
    parseOneFlag("--straggler-alpha=1.0");
    EXPECT_DOUBLE_EQ(bench::stragglerAlphaRef(), 1.0);
    parseOneFlag("--straggler-alpha=.25");
    EXPECT_DOUBLE_EQ(bench::stragglerAlphaRef(), 0.25);
}

TEST(KnobParseDeath, StragglerAlphaDemandsUnitInterval)
{
    // The monitor folds alpha into a /256 fixed-point weight whose
    // complement underflows outside (0, 1]; the knob rejects those
    // values outright rather than silently clamping.
    EXPECT_EXIT(parseOneFlag("--straggler-alpha=0"),
                ::testing::ExitedWithCode(2), "value in");
    EXPECT_EXIT(parseOneFlag("--straggler-alpha=0.0"),
                ::testing::ExitedWithCode(2), "value in");
    EXPECT_EXIT(parseOneFlag("--straggler-alpha=1.5"),
                ::testing::ExitedWithCode(2), "value in");
    EXPECT_EXIT(parseOneFlag("--straggler-alpha=-0.2"),
                ::testing::ExitedWithCode(2), "--straggler-alpha");
    EXPECT_EXIT(parseOneFlag("--straggler-alpha=fast"),
                ::testing::ExitedWithCode(2), "--straggler-alpha");
    EXPECT_EXIT(parseOneFlag("--straggler-alpha= 0.5"),
                ::testing::ExitedWithCode(2), "--straggler-alpha");
    EXPECT_EXIT(parseOneFlag("--straggler-alpha=0.5x"),
                ::testing::ExitedWithCode(2), "--straggler-alpha");
    EXPECT_EXIT(parseOneFlag("--straggler-alpha="),
                ::testing::ExitedWithCode(2), "--straggler-alpha");
    EXPECT_EXIT(
        {
            setenv("FIRESIM_STRAGGLER_ALPHA", "2.0", 1);
            parseCommonFlags(0, nullptr);
        },
        ::testing::ExitedWithCode(2), "FIRESIM_STRAGGLER_ALPHA");
}

TEST(KnobParse, ObservabilityFlagsRoundTrip)
{
    parseOneFlag("--heartbeat-every=64");
    EXPECT_EQ(bench::heartbeatEveryRef(), 64u);
    parseOneFlag("--status-interval=10");
    EXPECT_EQ(bench::statusIntervalRef(), 10u);
    parseOneFlag("--metrics-file=/tmp/fs.prom");
    EXPECT_EQ(bench::metricsFileRef(), "/tmp/fs.prom");
    parseOneFlag("--flight-recorder-depth=1024");
    EXPECT_EQ(bench::flightRecorderDepthRef(), 1024u);
    // The bare switch must not be shadowed by its =N-suffixed sibling
    // (both start with "--flight-recorder").
    EXPECT_FALSE(bench::flightRecorderRef());
    parseOneFlag("--flight-recorder");
    EXPECT_TRUE(bench::flightRecorderRef());
    EXPECT_EQ(bench::flightRecorderDepthRef(), 1024u);
}

TEST(KnobParseDeath, ObservabilityFlagsShareTheStrictParser)
{
    EXPECT_EXIT(parseOneFlag("--heartbeat-every=8x"),
                ::testing::ExitedWithCode(2), "--heartbeat-every");
    EXPECT_EXIT(parseOneFlag("--status-interval= 5"),
                ::testing::ExitedWithCode(2), "--status-interval");
    EXPECT_EXIT(parseOneFlag("--flight-recorder-depth=abc"),
                ::testing::ExitedWithCode(2),
                "--flight-recorder-depth");
    // Depth 0 parses but fails cross-validation: a zero-slot ring
    // records nothing and the FlightRecorder refuses to build one.
    EXPECT_EXIT(parseOneFlag("--flight-recorder-depth=0"),
                ::testing::ExitedWithCode(2), "at least 1");
    EXPECT_EXIT(
        {
            setenv("FIRESIM_HEARTBEAT_EVERY", "1h", 1);
            parseCommonFlags(0, nullptr);
        },
        ::testing::ExitedWithCode(2), "FIRESIM_HEARTBEAT_EVERY");
    EXPECT_EXIT(
        {
            setenv("FIRESIM_FLIGHT_RECORDER_DEPTH", "-1", 1);
            parseCommonFlags(0, nullptr);
        },
        ::testing::ExitedWithCode(2), "FIRESIM_FLIGHT_RECORDER_DEPTH");
}

TEST(KnobParse, DecodeCacheFlagsRoundTrip)
{
    // Default: on, 32Ki entries.
    EXPECT_TRUE(bench::decodeCacheRef());
    parseOneFlag("--decode-cache=off");
    EXPECT_FALSE(bench::decodeCacheRef());
    parseOneFlag("--decode-cache=on");
    EXPECT_TRUE(bench::decodeCacheRef());
    // The =N-suffixed sibling must not be swallowed by the shorter
    // prefix (both start with "--decode-cache").
    parseOneFlag("--decode-cache-entries=4096");
    EXPECT_EQ(bench::decodeCacheEntriesRef(), 4096u);
    EXPECT_TRUE(bench::decodeCacheRef());
}

TEST(KnobParseDeath, DecodeCacheFlagIsStrictOnOff)
{
    EXPECT_EXIT(parseOneFlag("--decode-cache=1"),
                ::testing::ExitedWithCode(2), "on or off");
    EXPECT_EXIT(parseOneFlag("--decode-cache=ON"),
                ::testing::ExitedWithCode(2), "on or off");
    EXPECT_EXIT(parseOneFlag("--decode-cache="),
                ::testing::ExitedWithCode(2), "on or off");
    EXPECT_EXIT(parseOneFlag("--decode-cache= on"),
                ::testing::ExitedWithCode(2), "on or off");
    EXPECT_EXIT(parseOneFlag("--decode-cache=off "),
                ::testing::ExitedWithCode(2), "on or off");
}

TEST(KnobParseDeath, DecodeCacheEntriesShareTheStrictParser)
{
    EXPECT_EXIT(parseOneFlag("--decode-cache-entries=-1"),
                ::testing::ExitedWithCode(2), "--decode-cache-entries");
    EXPECT_EXIT(parseOneFlag("--decode-cache-entries=abc"),
                ::testing::ExitedWithCode(2), "--decode-cache-entries");
    EXPECT_EXIT(parseOneFlag("--decode-cache-entries= 8"),
                ::testing::ExitedWithCode(2), "--decode-cache-entries");
    EXPECT_EXIT(parseOneFlag("--decode-cache-entries=8 "),
                ::testing::ExitedWithCode(2), "--decode-cache-entries");
    // 0 parses but fails cross-validation: a zero-entry cache can
    // serve nothing.
    EXPECT_EXIT(parseOneFlag("--decode-cache-entries=0"),
                ::testing::ExitedWithCode(2), "at least 1");
}

TEST(KnobParseDeath, DecodeCacheEnvPathIsStrictToo)
{
    EXPECT_EXIT(
        {
            setenv("FIRESIM_DECODE_CACHE", "true", 1);
            parseCommonFlags(0, nullptr);
        },
        ::testing::ExitedWithCode(2), "FIRESIM_DECODE_CACHE");
    EXPECT_EXIT(
        {
            setenv("FIRESIM_DECODE_CACHE_ENTRIES", "64k", 1);
            parseCommonFlags(0, nullptr);
        },
        ::testing::ExitedWithCode(2), "FIRESIM_DECODE_CACHE_ENTRIES");
}

TEST(KnobParse, DecodeCacheFlagOverridesEnv)
{
    // Flags win over the environment, same as every other knob.
    setenv("FIRESIM_DECODE_CACHE", "off", 1);
    parseOneFlag("--decode-cache=on");
    EXPECT_TRUE(bench::decodeCacheRef());
    unsetenv("FIRESIM_DECODE_CACHE");
}

} // namespace
} // namespace firesim
