/**
 * @file
 * Seeded mutation fuzzing of the bench flag parser (bench/common.hh).
 *
 * Each case builds a random command line from the flag table's names
 * with mutated values — signs, whitespace, overlong digit runs, a
 * missing or doubled '=', stray colons, truncated names — and parses it
 * under a random Honours declaration. Every input must either parse
 * into a consistent BenchFlags or return one error that names a flag;
 * none may crash, throw or exit. Run it in the sanitizer tree too
 * (cmake -DFIRESIM_SANITIZE=address), where an out-of-bounds read in a
 * value parser is a hard failure.
 */

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "bench/common.hh"

namespace firesim
{
namespace
{

using bench::BenchFlags;
using bench::FlagRow;
using bench::Honours;
using bench::kFlagTable;

/** Values every parser in the table sees: valid ones of each shape,
 *  and the near misses the strict contract must catch. */
const char *const kSeedValues[] = {
    "",         "0",        "1",          "2",          "8",
    "+3",       "-3",       "+",          "4294967295", "4294967296",
    "65535",    "65536",    "2147483647", "2147483648", " 8",
    "8 ",       "\t8",      "h:9000",     "10.1.2.3:1", ":9000",
    "h:",       "a:b:c",    "h:0",        "on",         "off",
    "ON",       "0.5",      ".25",        "1.0",        "1e-3",
    "nan",      "inf",      "-0.2",       "0x10",       "auto",
    "shm",      "tcp",      "unix",       "loopback",   "block",
    "cost",     "/tmp/f",   "::",         "=",          "8=8",
};

class ArgvFuzzer
{
  public:
    explicit ArgvFuzzer(uint64_t seed) : rng(seed) {}

    /** One mutated argument built from a random table row. */
    std::string
    argument()
    {
        const FlagRow &row = kFlagTable[pick(std::size(kFlagTable))];
        std::string name = row.name;
        if (pick(10) == 0) // truncated or misspelt name
            name.erase(2 + pick(name.size() - 2), 1);
        std::string value =
            mutate(kSeedValues[pick(std::size(kSeedValues))]);
        switch (pick(8)) {
        case 0:
            return name; // no '=' at all
        case 1:
            return name + value; // '=' missing, value glued on
        case 2:
            return name + "==" + value;
        case 3:
            return name + ":" + value;
        default:
            return name + "=" + value;
        }
    }

    size_t pick(size_t n) { return rng() % n; }

  private:
    std::string
    mutate(std::string v)
    {
        const int edits = static_cast<int>(pick(3));
        for (int i = 0; i < edits; ++i) {
            size_t at = pick(v.size() + 1);
            switch (pick(7)) {
            case 0:
                v.insert(at, 1, "+-"[pick(2)]);
                break;
            case 1:
                v.insert(at, 1, " \t\n"[pick(3)]);
                break;
            case 2:
                v.insert(at, 12 + pick(40),
                         static_cast<char>('0' + pick(10)));
                break;
            case 3:
                v.insert(at, 1, ':');
                break;
            case 4:
                v.insert(at, 1, '=');
                break;
            case 5:
                if (!v.empty())
                    v.erase(pick(v.size()), 1);
                break;
            default:
                v.insert(at, 1, static_cast<char>(1 + pick(255)));
                break;
            }
        }
        return v;
    }

    std::mt19937_64 rng;
};

/** The text before the first '=' of @p arg. */
std::string
flagName(const std::string &arg)
{
    return arg.substr(0, arg.find('='));
}

/** @p err names a table flag or the name part of one of the
 *  arguments argv[1..] it rejects. */
bool
namesAFlag(const std::string &err, const std::vector<std::string> &argv)
{
    for (const FlagRow &row : kFlagTable)
        if (err.find(row.name) != std::string::npos)
            return true;
    for (size_t i = 1; i < argv.size(); ++i)
        if (err.find(flagName(argv[i])) != std::string::npos)
            return true;
    return false;
}

TEST(KnobFuzz, EveryCommandLineParsesOrNamesAFlag)
{
    const Honours declarations[] = {
        Honours::EveryFlag, Honours::SingleProcess, Honours::HostsOnly,
        Honours::ShmRingOnly, Honours::None};
    ArgvFuzzer fuzz(0xf1a65eedULL);
    size_t accepted = 0;
    const int kCases = 20000;
    for (int c = 0; c < kCases; ++c) {
        std::vector<std::string> args = {"bench"};
        const size_t n = fuzz.pick(4);
        for (size_t i = 0; i < n; ++i)
            args.push_back(fuzz.argument());
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        const Honours honours = declarations[fuzz.pick(5)];

        BenchFlags f;
        std::string err;
        ASSERT_NO_THROW(err = bench::parseFlags(
                            static_cast<int>(argv.size()), argv.data(),
                            honours, f))
            << "case " << c;
        if (!err.empty()) {
            EXPECT_TRUE(namesAFlag(err, args))
                << "case " << c << ": '" << err << "'";
            continue;
        }
        ++accepted;
        const ClusterConfig &cc = f.cluster;
        EXPECT_GE(cc.parallelHosts, 1u) << "case " << c;
        EXPECT_LT(cc.shard.rank, cc.shard.shards) << "case " << c;
        EXPECT_TRUE(cc.shard.shards == 1 || cc.shard.basePort != 0)
            << "case " << c;
        EXPECT_GT(cc.monitor.ewmaAlpha, 0.0) << "case " << c;
        EXPECT_LE(cc.monitor.ewmaAlpha, 1.0) << "case " << c;
        EXPECT_GE(cc.shard.connectTimeoutMs, 0) << "case " << c;
        EXPECT_GT(cc.flightRecorder.depth, 0u) << "case " << c;
        EXPECT_GT(cc.hart.decodeCacheEntries, 0u) << "case " << c;
    }
    // The corpus must exercise both outcomes, or it proves little.
    EXPECT_GT(accepted, 0u);
    EXPECT_LT(accepted, static_cast<size_t>(kCases));
}

} // namespace
} // namespace firesim
