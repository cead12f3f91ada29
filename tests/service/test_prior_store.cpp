/**
 * @file
 * PriorStore tests: the in-memory LRU contract, crash-safe journal +
 * snapshot persistence (bitwise round-trip of double coordinates),
 * torn-tail truncation, CRC rejection of corrupt records, snapshot
 * compaction, capacity enforcement across restarts, and graceful
 * degradation when loading fails.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "scratch_path.hpp"
#include "service/prior_store.hpp"
#include "util/failpoint.hpp"

namespace qplacer {
namespace {

/**
 * A synthetic layout with awkward doubles (non-terminating binary
 * fractions, huge frequencies) so the bitwise round-trip assertion has
 * teeth.
 */
std::shared_ptr<const PriorLayout>
makePrior(int salt)
{
    PriorLayout prior;
    prior.region = Rect(0.0, 0.0, 1000.0 / 3.0, 725.3 + salt * 0.1);
    prior.numInstances = 3 + salt;
    for (int q = 0; q < 3; ++q) {
        prior.qubitSites[q + salt] =
            PriorSite{Vec2(q * (1.0 / 3.0) + salt * 0.7,
                           q * 0.123456789 + 1e-9),
                      5.1e9 + q * 1.0e7 + salt};
    }
    prior.segmentSites[{salt, salt + 1, 0}] =
        PriorSite{Vec2(17.0 / 7.0, 42.0 / 13.0), 6.45e9 + salt};
    prior.segmentSites[{salt, salt + 1, 1}] =
        PriorSite{Vec2(-3.25, 99.999999999), 6.55e9 + salt};
    return std::make_shared<const PriorLayout>(std::move(prior));
}

/** Field-exact (bitwise for doubles) layout equality. */
void
expectSame(const PriorLayout &a, const PriorLayout &b)
{
    EXPECT_EQ(a.region.lo.x, b.region.lo.x);
    EXPECT_EQ(a.region.lo.y, b.region.lo.y);
    EXPECT_EQ(a.region.hi.x, b.region.hi.x);
    EXPECT_EQ(a.region.hi.y, b.region.hi.y);
    EXPECT_EQ(a.numInstances, b.numInstances);
    ASSERT_EQ(a.qubitSites.size(), b.qubitSites.size());
    for (const auto &[qubit, site] : a.qubitSites) {
        const auto it = b.qubitSites.find(qubit);
        ASSERT_NE(it, b.qubitSites.end()) << "qubit " << qubit;
        EXPECT_EQ(site.pos.x, it->second.pos.x);
        EXPECT_EQ(site.pos.y, it->second.pos.y);
        EXPECT_EQ(site.freqHz, it->second.freqHz);
    }
    ASSERT_EQ(a.segmentSites.size(), b.segmentSites.size());
    for (const auto &[key, site] : a.segmentSites) {
        const auto it = b.segmentSites.find(key);
        ASSERT_NE(it, b.segmentSites.end());
        EXPECT_EQ(site.pos.x, it->second.pos.x);
        EXPECT_EQ(site.pos.y, it->second.pos.y);
        EXPECT_EQ(site.freqHz, it->second.freqHz);
    }
}

TEST(PriorStore, MemoryOnlyLruEviction)
{
    PriorStoreOptions options;
    options.capacity = 2;
    PriorStore store(options);

    store.put("a", makePrior(1));
    store.put("b", makePrior(2));
    // Touch "a": it becomes most-recently-used, so "b" evicts next.
    EXPECT_NE(store.get("a"), nullptr);
    store.put("c", makePrior(3));

    EXPECT_EQ(store.size(), 2);
    EXPECT_NE(store.get("a"), nullptr);
    EXPECT_EQ(store.get("b"), nullptr);
    EXPECT_NE(store.get("c"), nullptr);
}

TEST(PriorStore, JsonRoundTripIsExact)
{
    const auto prior = makePrior(7);
    const JsonValue payload = PriorStore::priorToJson("job", *prior);

    std::string id;
    PriorLayout back;
    std::string error;
    ASSERT_TRUE(PriorStore::priorFromJson(payload, id, back, &error))
        << error;
    EXPECT_EQ(id, "job");
    expectSame(*prior, back);
}

TEST(PriorStore, PersistsAcrossRestartBitwise)
{
    ScratchPath dir;
    PriorStoreOptions options;
    options.stateDir = dir.path;
    const auto a = makePrior(1);
    const auto b = makePrior(2);
    {
        PriorStore store(options);
        EXPECT_EQ(store.loadedFromDisk(), 0);
        store.put("a", a);
        store.put("b", b);
    }
    PriorStore reopened(options);
    EXPECT_EQ(reopened.loadedFromDisk(), 2);
    const auto ra = reopened.get("a");
    const auto rb = reopened.get("b");
    ASSERT_NE(ra, nullptr);
    ASSERT_NE(rb, nullptr);
    expectSame(*a, *ra);
    expectSame(*b, *rb);
}

TEST(PriorStore, TornTailIsTruncatedNotFatal)
{
    ScratchPath dir;
    PriorStoreOptions options;
    options.stateDir = dir.path;
    {
        PriorStore store(options);
        store.put("a", makePrior(1));
        store.put("b", makePrior(2));
    }
    // Crash mid-append: a partial record with no newline.
    const std::string journal = dir.path + "/priors.journal";
    const auto before = std::filesystem::file_size(journal);
    {
        std::ofstream out(journal, std::ios::app | std::ios::binary);
        out << "{\"crc\":123,\"put\":{\"id\":\"torn";
    }
    {
        PriorStore reopened(options);
        EXPECT_EQ(reopened.loadedFromDisk(), 2);
        EXPECT_NE(reopened.get("a"), nullptr);
        EXPECT_NE(reopened.get("b"), nullptr);
        EXPECT_EQ(reopened.get("torn"), nullptr);
    }
    // The torn bytes are gone: the journal shrank back to the last
    // good record and a further restart loads cleanly.
    EXPECT_EQ(std::filesystem::file_size(journal), before);
    PriorStore again(options);
    EXPECT_EQ(again.loadedFromDisk(), 2);
}

TEST(PriorStore, CorruptCrcDropsTheRecord)
{
    ScratchPath dir;
    PriorStoreOptions options;
    options.stateDir = dir.path;
    {
        PriorStore store(options);
        store.put("good", makePrior(1));
        store.put("bad", makePrior(2));
    }
    // Flip payload bytes of the *last* record; its CRC no longer
    // matches, so replay keeps "good" and truncates at "bad".
    const std::string journal = dir.path + "/priors.journal";
    std::string content;
    {
        std::ifstream in(journal, std::ios::binary);
        content.assign(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
    }
    const std::size_t target = content.find("\"bad\"");
    ASSERT_NE(target, std::string::npos);
    content[target + 1] = 'x';
    {
        std::ofstream out(journal,
                          std::ios::trunc | std::ios::binary);
        out << content;
    }
    PriorStore reopened(options);
    EXPECT_EQ(reopened.loadedFromDisk(), 1);
    EXPECT_NE(reopened.get("good"), nullptr);
    EXPECT_EQ(reopened.get("bad"), nullptr);
}

TEST(PriorStore, SnapshotCompactsJournal)
{
    ScratchPath dir;
    PriorStoreOptions options;
    options.stateDir = dir.path;
    options.snapshotEvery = 2;
    {
        PriorStore store(options);
        store.put("a", makePrior(1));
        store.put("b", makePrior(2)); // Triggers the snapshot.
        store.put("c", makePrior(3));
    }
    EXPECT_TRUE(
        std::filesystem::exists(dir.path + "/priors.snapshot"));
    // After compaction the journal holds only post-snapshot appends
    // ("c"), not the whole history.
    std::ifstream journal(dir.path + "/priors.journal",
                          std::ios::binary);
    std::string content{std::istreambuf_iterator<char>(journal),
                        std::istreambuf_iterator<char>()};
    EXPECT_EQ(content.find("\"a\""), std::string::npos);
    EXPECT_NE(content.find("\"c\""), std::string::npos);

    PriorStore reopened(options);
    EXPECT_EQ(reopened.loadedFromDisk(), 3);
    EXPECT_NE(reopened.get("a"), nullptr);
    EXPECT_NE(reopened.get("b"), nullptr);
    EXPECT_NE(reopened.get("c"), nullptr);
}

TEST(PriorStore, CapacityHoldsAcrossRestart)
{
    ScratchPath dir;
    PriorStoreOptions options;
    options.stateDir = dir.path;
    options.capacity = 2;
    {
        PriorStore store(options);
        store.put("a", makePrior(1));
        store.put("b", makePrior(2));
        store.put("c", makePrior(3)); // Evicts "a" in memory.
        EXPECT_EQ(store.size(), 2);
    }
    // The journal still carries "a"'s record; replay re-applies the
    // LRU trim so the reopened store matches the pre-crash bound.
    PriorStore reopened(options);
    EXPECT_EQ(reopened.size(), 2);
    EXPECT_EQ(reopened.get("a"), nullptr);
    EXPECT_NE(reopened.get("b"), nullptr);
    EXPECT_NE(reopened.get("c"), nullptr);
}

TEST(PriorStore, InjectedLoadFailureStartsEmptyAndServes)
{
    ScratchPath dir;
    PriorStoreOptions options;
    options.stateDir = dir.path;
    {
        PriorStore store(options);
        store.put("a", makePrior(1));
    }
    ASSERT_TRUE(Failpoints::instance().arm("prior_store.load", "error"));
    {
        PriorStore degraded(options);
        Failpoints::instance().disarmAll();
        EXPECT_EQ(degraded.loadedFromDisk(), 0);
        EXPECT_EQ(degraded.get("a"), nullptr);
        // Still serving, still persisting.
        degraded.put("b", makePrior(2));
        EXPECT_NE(degraded.get("b"), nullptr);
    }
    PriorStore recovered(options);
    EXPECT_NE(recovered.get("b"), nullptr);
}

TEST(PriorStore, InjectedAppendFailureDegradesToMemory)
{
    ScratchPath dir;
    PriorStoreOptions options;
    options.stateDir = dir.path;
    {
        PriorStore store(options);
        ASSERT_TRUE(
            Failpoints::instance().arm("prior_store.append", "error"));
        store.put("lost", makePrior(1));
        Failpoints::instance().disarmAll();
        // In-memory serving is unaffected by the persistence failure.
        EXPECT_NE(store.get("lost"), nullptr);
        store.put("kept", makePrior(2));
    }
    PriorStore reopened(options);
    EXPECT_NE(reopened.get("kept"), nullptr);
}

} // namespace
} // namespace qplacer
