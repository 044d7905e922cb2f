#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.hh"

namespace firesim
{
namespace
{

TEST(EventQueue, RunsInTimestampOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.runUntil(100);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(42, [&order, i] { order.push_back(i); });
    q.runUntil(43);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, RunUntilExcludesLimitCycle)
{
    EventQueue q;
    bool at_limit = false, before_limit = false;
    q.schedule(9, [&] { before_limit = true; });
    q.schedule(10, [&] { at_limit = true; });
    q.runUntil(10);
    EXPECT_TRUE(before_limit);
    EXPECT_FALSE(at_limit);
    // The event at 10 runs in the next window.
    q.runUntil(11);
    EXPECT_TRUE(at_limit);
}

TEST(EventQueue, NowAdvancesDuringExecution)
{
    EventQueue q;
    Cycles seen = 0;
    q.schedule(7, [&] { seen = q.now(); });
    q.runUntil(100);
    EXPECT_EQ(seen, 7u);
}

TEST(EventQueue, EventsMayScheduleWithinWindow)
{
    EventQueue q;
    std::vector<Cycles> fired;
    q.schedule(5, [&] {
        fired.push_back(q.now());
        q.scheduleIn(3, [&] { fired.push_back(q.now()); });
    });
    q.runUntil(20);
    EXPECT_EQ(fired, (std::vector<Cycles>{5, 8}));
}

TEST(EventQueue, ChainedSelfRescheduleStopsAtWindow)
{
    EventQueue q;
    int ticks = 0;
    std::function<void()> tick = [&] {
        ++ticks;
        q.scheduleIn(10, tick);
    };
    q.schedule(0, tick);
    q.runUntil(100);
    // Fires at 0,10,...,90 = 10 times; the one at 100 stays pending.
    EXPECT_EQ(ticks, 10);
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, DrainRunsEverything)
{
    EventQueue q;
    int count = 0;
    q.schedule(1, [&] { ++count; });
    q.schedule(1000000, [&] { ++count; });
    Cycles last = q.drain();
    EXPECT_EQ(count, 2);
    EXPECT_EQ(last, 1000000u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextEventCycle)
{
    EventQueue q;
    EXPECT_EQ(q.nextEventCycle(), kNoCycle);
    q.schedule(55, [] {});
    EXPECT_EQ(q.nextEventCycle(), 55u);
}

TEST(EventQueueDeath, PastSchedulingIsBug)
{
    EventQueue q;
    q.runUntil(50);
    EXPECT_DEATH(q.schedule(49, [] {}), "before now");
}

TEST(EventQueueDeath, RunUntilBackwardsIsBug)
{
    EventQueue q;
    q.runUntil(50);
    EXPECT_DEATH(q.runUntil(10), "backwards");
}

// ---- Inline callbacks ------------------------------------------------

/** Counts live instances, so leaks and double destruction show. */
struct Tally
{
    static inline int live = 0;
    Tally() { ++live; }
    Tally(const Tally &) { ++live; }
    Tally(Tally &&) noexcept { ++live; }
    ~Tally() { --live; }
};

TEST(EventQueueCallback, CaptureLargerThanInlineStorageRuns)
{
    std::array<uint64_t, 16> big{};
    for (size_t i = 0; i < big.size(); ++i)
        big[i] = i * i;
    auto fn = [big](uint64_t *out) {
        for (uint64_t v : big)
            *out += v;
    };
    uint64_t sum = 0;
    auto cb = [fn, &sum] { fn(&sum); };
    static_assert(!EventQueue::Callback::storedInline<decltype(cb)>());
    EventQueue q;
    q.schedule(3, cb);
    q.schedule(4, std::move(cb));
    q.runUntil(10);
    EXPECT_EQ(sum, 2u * 1240u);
}

TEST(EventQueueCallback, MoveOnlyCaptureRuns)
{
    EventQueue q;
    int seen = 0;
    auto owned = std::make_unique<int>(41);
    auto cb = [p = std::move(owned), &seen] { seen = *p + 1; };
    static_assert(EventQueue::Callback::storedInline<decltype(cb)>());
    q.schedule(5, std::move(cb));
    q.runUntil(6);
    EXPECT_EQ(seen, 42);
}

TEST(EventQueueCallback, UnrunCallbacksAreDestroyed)
{
    Tally::live = 0;
    {
        EventQueue q;
        std::array<char, 96> pad{};
        for (int i = 0; i < 20; ++i) {
            q.schedule(100 + i, [t = Tally()] {});
            // Heap fallback: larger than the inline storage.
            q.schedule(100 + i, [t = Tally(), pad] { (void)pad; });
        }
        EXPECT_EQ(Tally::live, 40);
        q.runUntil(105); // five of each ran and died
        EXPECT_EQ(Tally::live, 30);
    }
    EXPECT_EQ(Tally::live, 0);
}

TEST(EventQueueCallback, RescheduleFromInsideARunningCallback)
{
    // A running callback schedules enough events to regrow the heap
    // under itself and then still reads its own captures: the queue
    // moved it out of the heap before calling it.
    EventQueue q;
    std::vector<int> order;
    std::array<int, 20> big{};
    big.fill(7);
    q.schedule(1, [&q, &order, big, token = std::make_unique<int>(3)] {
        for (int i = 0; i < 100; ++i)
            q.scheduleIn(1 + i % 3, [&order, i] { order.push_back(i); });
        // Reschedule a move-only closure at the same cycle.
        q.scheduleIn(0, [&order, t = std::make_unique<int>(*token)] {
            order.push_back(-*t);
        });
        order.push_back(big[19] * *token);
    });
    q.runUntil(10);
    ASSERT_EQ(order.size(), 102u);
    EXPECT_EQ(order[0], 21);
    EXPECT_EQ(order[1], -3);
    EXPECT_EQ(order[2], 0);  // cycle 2: i = 0, 3, 6, ...
    EXPECT_EQ(order[3], 3);
    EXPECT_EQ(q.scheduledTotal(), 102u);
}

TEST(EventQueueCallback, MovedFromCallbackIsEmpty)
{
    int hits = 0;
    EventQueue::Callback a([&hits] { ++hits; });
    EventQueue::Callback b(std::move(a));
    EXPECT_FALSE(a);
    ASSERT_TRUE(b);
    b();
    a = std::move(b);
    EXPECT_FALSE(b);
    a();
    EXPECT_EQ(hits, 2);
}

} // namespace
} // namespace firesim
