/**
 * @file
 * Unit tests for the util module: bit helpers, the deterministic RNG,
 * the table formatter, the durable line journal, and the transient-retry
 * helper.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>

#include "util/bitutil.hh"
#include "util/deadline.hh"
#include "util/error.hh"
#include "util/fileio.hh"
#include "util/random.hh"
#include "util/table.hh"
#include "util/timer.hh"

namespace rsr
{
namespace
{

TEST(BitUtil, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_TRUE(isPowerOf2(1ull << 40));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_FALSE(isPowerOf2(12));
}

TEST(BitUtil, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(floorLog2((1ull << 33) + 5), 33u);
}

TEST(BitUtil, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(64), 6u);
    EXPECT_EQ(ceilLog2(65), 7u);
}

TEST(BitUtil, MaskBits)
{
    EXPECT_EQ(maskBits(0), 0u);
    EXPECT_EQ(maskBits(1), 1u);
    EXPECT_EQ(maskBits(16), 0xffffu);
    EXPECT_EQ(maskBits(64), ~std::uint64_t{0});
}

TEST(BitUtil, BitsExtract)
{
    EXPECT_EQ(bits(0xabcd, 0, 4), 0xdu);
    EXPECT_EQ(bits(0xabcd, 4, 4), 0xcu);
    EXPECT_EQ(bits(0xabcd, 8, 8), 0xabu);
}

TEST(BitUtil, SignExtend)
{
    EXPECT_EQ(signExtend(0x7fff, 16), 0x7fff);
    EXPECT_EQ(signExtend(0x8000, 16), -0x8000);
    EXPECT_EQ(signExtend(0xffff, 16), -1);
    EXPECT_EQ(signExtend(0x1, 1), -1);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(13), 13u);
}

TEST(Rng, BelowRoughlyUniform)
{
    Rng r(99);
    int buckets[8] = {};
    const int draws = 80000;
    for (int i = 0; i < draws; ++i)
        ++buckets[r.below(8)];
    for (int b = 0; b < 8; ++b) {
        EXPECT_GT(buckets[b], draws / 8 * 0.9);
        EXPECT_LT(buckets[b], draws / 8 * 1.1);
    }
}

TEST(Rng, RangeInclusive)
{
    Rng r(3);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 200; ++i) {
        const auto v = r.range(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(5);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceFrequency)
{
    Rng r(11);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, ForkIndependent)
{
    Rng a(42);
    Rng child = a.fork();
    EXPECT_NE(a.next(), child.next());
}

TEST(TextTable, RendersAligned)
{
    TextTable t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer", "22"});
    const std::string out = t.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    // Header, separator, two rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(TextTable, Csv)
{
    TextTable t({"a", "b"});
    t.addRow({"1", "2"});
    EXPECT_EQ(t.csv(), "a,b\n1,2\n");
}

TEST(TextTable, NumFormatting)
{
    EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
    EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(WallTimer, MonotonicNonNegative)
{
    WallTimer t;
    const double a = t.seconds();
    const double b = t.seconds();
    EXPECT_GE(a, 0.0);
    EXPECT_GE(b, a);
}

TEST(Deadline, NonPositiveSecondsIsTheUnlimitedSentinel)
{
    for (const double seconds : {0.0, -1.0, -1e300}) {
        const Deadline d(seconds);
        EXPECT_TRUE(d.unlimited());
        EXPECT_FALSE(d.expired());
        EXPECT_TRUE(std::isinf(d.remainingSeconds()));
        // poll(2) callers get the cap, never a blocking -1 or a 0 spin.
        EXPECT_EQ(d.pollTimeoutMs(250), 250);
    }
}

TEST(Deadline, HugeSecondsClampInsteadOfOverflowing)
{
    // 1e300 seconds overflows the steady_clock duration cast; the
    // constructor must clamp to maxSeconds, not wrap into the past.
    for (const double seconds :
         {Deadline::maxSeconds, Deadline::maxSeconds * 2, 1e300,
          std::numeric_limits<double>::infinity()}) {
        const Deadline d(seconds);
        EXPECT_FALSE(d.unlimited());
        EXPECT_FALSE(d.expired());
        const double remaining = d.remainingSeconds();
        EXPECT_GT(remaining, Deadline::maxSeconds * 0.99);
        EXPECT_LE(remaining, Deadline::maxSeconds);
    }
}

TEST(Deadline, ExpiryClampsRemainingToZero)
{
    const Deadline d(0.02);
    EXPECT_FALSE(d.unlimited());
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    EXPECT_TRUE(d.expired());
    EXPECT_EQ(d.remainingSeconds(), 0.0);
    EXPECT_EQ(d.pollTimeoutMs(100), 0);
}

TEST(Deadline, PollTimeoutRoundsUpAndHonoursTheCap)
{
    // Far-off expiry: the cap wins.
    EXPECT_EQ(Deadline(60.0).pollTimeoutMs(100), 100);

    // Sub-millisecond remainder: rounds *up* to 1, never truncates to a
    // busy-spin 0 while unexpired.
    const Deadline soon(0.05);
    const int ms = soon.pollTimeoutMs(1000);
    EXPECT_GE(ms, 1);
    EXPECT_LE(ms, 51);

    // A zero cap is respected even with time remaining.
    EXPECT_EQ(Deadline(60.0).pollTimeoutMs(0), 0);
}

// ---------------------------------------------------------------------
// LineJournal — the durable append-only journal behind the campaign
// manifest and the serve request journal.
// ---------------------------------------------------------------------

std::string
journalFile(const char *tag)
{
    const std::string path =
        std::string(::testing::TempDir()) + "/rsr_line_journal_" + tag;
    std::remove(path.c_str());
    return path;
}

std::string
fileText(const std::string &path)
{
    const auto bytes = readFileBytes(path);
    return std::string(bytes.begin(), bytes.end());
}

TEST(LineJournal, FreshTruncatesAndEveryAppendIsOneLine)
{
    const std::string path = journalFile("fresh");
    atomicWriteFile(path, std::string("stale\n"));
    {
        LineJournal journal(path, LineJournal::OpenMode::Fresh);
        journal.append("{\"a\":1}");
        journal.append("{\"b\":2}");
    }
    EXPECT_EQ(fileText(path), "{\"a\":1}\n{\"b\":2}\n");
}

TEST(LineJournal, ResumeTruncatesTornTailSharedLeavesIt)
{
    const std::string path = journalFile("torn");
    atomicWriteFile(path, std::string("one\n\ntwo\n{\"id\":0,\"wor"));
    // Empty lines are skipped; the torn tail is returned for the loader
    // to drop.
    EXPECT_EQ(readJournalLines(path),
              (std::vector<std::string>{"one", "two", "{\"id\":0,\"wor"}));

    { LineJournal shared(path, LineJournal::OpenMode::Shared); }
    EXPECT_EQ(fileText(path), "one\n\ntwo\n{\"id\":0,\"wor");

    {
        LineJournal journal(path, LineJournal::OpenMode::Resume);
        journal.append("three");
    }
    EXPECT_EQ(fileText(path), "one\n\ntwo\nthree\n");

    // A tail with no newline at all is torn in full.
    atomicWriteFile(path, std::string("{\"id\""));
    { LineJournal journal(path, LineJournal::OpenMode::Resume); }
    EXPECT_EQ(fileText(path), "");
}

TEST(LineJournal, ConcurrentAppendsInterleaveWholeLines)
{
    const std::string path = journalFile("threads");
    constexpr int kThreads = 4;
    constexpr int kLines = 25;
    {
        LineJournal journal(path, LineJournal::OpenMode::Fresh);
        std::vector<std::thread> writers;
        for (int t = 0; t < kThreads; ++t)
            writers.emplace_back([&journal, t] {
                for (int i = 0; i < kLines; ++i)
                    journal.append(std::string(40, char('a' + t)) +
                                   std::to_string(i));
            });
        for (auto &w : writers)
            w.join();
    }
    const auto lines = readJournalLines(path);
    ASSERT_EQ(lines.size(), std::size_t{kThreads * kLines});
    std::set<std::string> distinct(lines.begin(), lines.end());
    EXPECT_EQ(distinct.size(), lines.size());
    for (const std::string &line : lines)
        EXPECT_EQ(line.find_first_not_of(line[0]), 40u) << line;
}

TEST(LineJournal, FsyncFailureThrowsIoError)
{
    // A FIFO accepts the write but rejects fsync (EINVAL): the append
    // must not report success for a line it could not make durable.
    const std::string path = journalFile("fifo");
    ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
    LineJournal journal(path, LineJournal::OpenMode::Shared);
    EXPECT_THROW(journal.append("{\"id\":0}"), IoError);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// retryTransient — the one retry loop for campaign jobs and requests.
// ---------------------------------------------------------------------

TEST(RetryTransient, RetriesTransientErrorsUpToTheLimit)
{
    int calls = 0;
    int retries = 0;
    const auto count_retry = [&] {
        ++retries;
        return true;
    };
    EXPECT_EQ(retryTransient(3, 0, count_retry,
                             [&] {
                                 if (++calls < 3)
                                     rsr_throw_io("transient");
                                 return calls;
                             }),
              3);
    EXPECT_EQ(retries, 2);

    calls = 0;
    EXPECT_THROW(retryTransient(2, 0, count_retry,
                                [&] {
                                    ++calls;
                                    rsr_throw_io("always");
                                }),
                 IoError);
    EXPECT_EQ(calls, 3); // the first attempt plus two retries

    calls = 0;
    EXPECT_THROW(retryTransient(5, 0, count_retry,
                                [&] {
                                    ++calls;
                                    rsr_throw_user("permanent");
                                }),
                 UserError);
    EXPECT_EQ(calls, 1);

    // A false predicate (a raised stop flag) ends the retries early.
    calls = 0;
    EXPECT_THROW(retryTransient(5, 0, [] { return false; },
                                [&] {
                                    ++calls;
                                    rsr_throw_io("transient");
                                }),
                 IoError);
    EXPECT_EQ(calls, 1);
}

} // namespace
} // namespace rsr
