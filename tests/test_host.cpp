/**
 * @file
 * Unit tests for the host substrate: LRU page cache, CPU cost model,
 * and the lseek+read file reader of the naive SSD deployment.
 */

#include <gtest/gtest.h>

#include <list>
#include <unordered_map>
#include <vector>

#include "flash/flash_array.h"
#include "ftl/extent.h"
#include "ftl/ftl.h"
#include "host/cpu_model.h"
#include "host/host_system.h"
#include "host/page_cache.h"
#include "nvme/nvme.h"
#include "sim/rng.h"

namespace rmssd::host {
namespace {

TEST(PageCache, HitAfterInsert)
{
    PageCache cache(4);
    EXPECT_FALSE(cache.access({0, 1}));
    EXPECT_TRUE(cache.access({0, 1}));
    EXPECT_EQ(cache.hits().value(), 1u);
    EXPECT_EQ(cache.misses().value(), 1u);
    EXPECT_DOUBLE_EQ(cache.hitRatio(), 0.5);
}

TEST(PageCache, EvictsLeastRecentlyUsed)
{
    PageCache cache(2);
    cache.access({0, 1});
    cache.access({0, 2});
    cache.access({0, 1}); // refresh 1; LRU is now 2
    cache.access({0, 3}); // evicts 2
    EXPECT_TRUE(cache.contains({0, 1}));
    EXPECT_FALSE(cache.contains({0, 2}));
    EXPECT_TRUE(cache.contains({0, 3}));
    EXPECT_EQ(cache.evictions().value(), 1u);
}

TEST(PageCache, ZeroCapacityMeansUnbounded)
{
    PageCache cache(0);
    for (std::uint64_t i = 0; i < 10000; ++i)
        cache.access({0, i});
    EXPECT_EQ(cache.evictions().value(), 0u);
}

TEST(PageCache, DistinguishesFiles)
{
    PageCache cache(8);
    cache.access({0, 5});
    EXPECT_FALSE(cache.access({1, 5}));
}

TEST(PageCache, LruSemantics)
{
    // The access sequence RecSSD's host vector cache was first tested
    // with, keyed {table, row}.
    PageCache cache(2);
    EXPECT_FALSE(cache.access({0, 1}));
    EXPECT_FALSE(cache.access({0, 2}));
    EXPECT_TRUE(cache.access({0, 1}));
    EXPECT_FALSE(cache.access({0, 3})); // evicts row 2
    EXPECT_FALSE(cache.access({0, 2}));
    EXPECT_NEAR(cache.hitRatio(), 1.0 / 5.0, 1e-9);
}

TEST(PageCacheDeathTest, RejectsKeysOutsideThePacking)
{
    PageCache cache(4);
    EXPECT_DEATH((void)cache.access({1U << 15, 0}),
                 "file id exceeds key space");
    EXPECT_DEATH((void)cache.contains({0, 1ULL << 48}),
                 "page index exceeds key space");
}

/**
 * Reference model of the page cache as it was first written: a
 * std::list in recency order plus an unordered_map from key to list
 * node. The flat cache must match it call for call.
 */
class ReferencePageCache
{
  public:
    explicit ReferencePageCache(std::uint64_t capacity) : capacity_(capacity)
    {
    }

    bool
    access(const PageKey &key)
    {
        auto it = map_.find(key);
        if (it != map_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            ++hits;
            return true;
        }
        ++misses;
        if (capacity_ != 0 && map_.size() >= capacity_) {
            map_.erase(lru_.back());
            lru_.pop_back();
            ++evictions;
        }
        lru_.push_front(key);
        map_[key] = lru_.begin();
        return false;
    }

    bool contains(const PageKey &key) const { return map_.contains(key); }
    std::size_t size() const { return map_.size(); }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

  private:
    struct Hash
    {
        std::size_t
        operator()(const PageKey &k) const
        {
            return static_cast<std::size_t>(
                splitmix64(k.pageIndex ^ (std::uint64_t{k.fileId} << 48)));
        }
    };

    std::uint64_t capacity_;
    std::list<PageKey> lru_; //!< front = most recent
    std::unordered_map<PageKey, std::list<PageKey>::iterator, Hash> map_;
};

TEST(PageCacheDifferential, MatchesListMapReference)
{
    constexpr int kOps = 20000;
    for (const std::uint64_t capacity : {0u, 1u, 2u, 7u, 64u}) {
        SCOPED_TRACE(capacity);
        PageCache cache(capacity);
        ReferencePageCache ref(capacity);
        Rng rng(23);
        for (int op = 0; op < kOps; ++op) {
            // Skewed pages over several files, the edges of the key
            // packing included: enough reuse for hits, enough spread
            // for evictions at every capacity.
            constexpr std::uint32_t kFiles[] = {0, 1, 5, (1U << 15) - 1};
            const std::uint32_t file = kFiles[rng.nextBounded(4)];
            std::uint64_t page = rng.nextBounded(8) == 0
                                     ? rng.nextBounded(4096)
                                     : rng.nextBounded(96);
            if (rng.nextBounded(64) == 0)
                page = (1ULL << 48) - 1 - page;
            const PageKey key{file, page};
            if (rng.nextBounded(5) == 0) {
                ASSERT_EQ(cache.contains(key), ref.contains(key))
                    << "contains, op " << op;
            } else {
                ASSERT_EQ(cache.access(key), ref.access(key))
                    << "access, op " << op;
            }
            ASSERT_EQ(cache.hits().value(), ref.hits) << "op " << op;
            ASSERT_EQ(cache.misses().value(), ref.misses) << "op " << op;
            ASSERT_EQ(cache.evictions().value(), ref.evictions)
                << "op " << op;
        }
    }
}

TEST(CpuModel, MlpCostScalesWithFlopsAndBatch)
{
    CpuModel cpu;
    const std::vector<FcShape> layers{{128, 64}, {64, 32}};
    // 2 * (128*64 + 64*32) flops at the configured base GFLOP/s.
    const Nanos one = cpu.mlpNanos(layers, 1);
    const double flops = 2.0 * (128 * 64 + 64 * 32);
    EXPECT_NEAR(static_cast<double>(one.raw()),
                flops / cpu.costs().gemmGflops, 1.0);
    // Small batches are throughput-free: the effective GEMM rate
    // grows linearly with batch until the batched ceiling.
    const Nanos four = cpu.mlpNanos(layers, 4);
    EXPECT_EQ(four, one);
    // Past the ceiling the cost grows linearly again.
    const std::uint32_t knee = static_cast<std::uint32_t>(
        cpu.costs().maxGemmGflops / cpu.costs().gemmGflops);
    const Nanos atKnee = cpu.mlpNanos(layers, knee);
    const Nanos doubleKnee = cpu.mlpNanos(layers, 2 * knee);
    EXPECT_NEAR(static_cast<double>(doubleKnee.raw()),
                2.0 * static_cast<double>(atKnee.raw()), 2.0);
}

TEST(CpuModel, SlsCostPerLookup)
{
    CpuModel cpu;
    const Nanos n = cpu.slsNanos(100, Bytes{128});
    const double perLookup =
        static_cast<double>(cpu.costs().slsFixedNanos.raw()) +
        cpu.costs().dramNanosPerByte * 128.0;
    EXPECT_NEAR(static_cast<double>(n.raw()), 100.0 * perLookup, 1.0);
}

class ReaderFixture : public ::testing::Test
{
  protected:
    ReaderFixture()
        : array_(flash::tableIIGeometry(), flash::tableIITiming()),
          ftl_(ftl::Ftl::makeLinear(array_)), nvme_(ftl_)
    {
        extents_.append(ftl::Extent{Lba{}, Sectors{1024}}); // 128 p
    }

    flash::FlashArray array_;
    ftl::Ftl ftl_;
    nvme::NvmeController nvme_;
    ftl::ExtentList extents_;
};

TEST_F(ReaderFixture, MissPaysDeviceAndKernelCosts)
{
    HostFileReader reader(nvme_, 16);
    const IoCost cost = reader.readVector(0, extents_, Bytes{},
                                          Bytes{128}, Nanos{}, {});
    EXPECT_GT(cost.ssdNanos, Nanos{});
    EXPECT_GE(cost.fsNanos,
              Nanos{reader.cache().capacityPages() ? 1u : 0u});
    EXPECT_EQ(reader.deviceBytes().value(), 4096u);
}

TEST_F(ReaderFixture, HitIsCheapAndTrafficFree)
{
    HostFileReader reader(nvme_, 16);
    reader.readVector(0, extents_, Bytes{}, Bytes{128}, Nanos{}, {});
    const IoCost hit = reader.readVector(0, extents_, Bytes{},
                                         Bytes{128}, Nanos{}, {});
    EXPECT_EQ(hit.ssdNanos, Nanos{});
    EXPECT_EQ(reader.deviceBytes().value(), 4096u); // unchanged
    // A different vector on the same page also hits.
    const IoCost samePage = reader.readVector(
        0, extents_, Bytes{256}, Bytes{128}, Nanos{}, {});
    EXPECT_EQ(samePage.ssdNanos, Nanos{});
}

TEST_F(ReaderFixture, ReadAmplificationIsPageOverVector)
{
    HostFileReader reader(nvme_, 1); // tiny cache: all misses
    // Touch 32 distinct pages.
    for (std::uint64_t i = 0; i < 32; ++i)
        reader.readVector(0, extents_, Bytes{i * 4096}, Bytes{128},
                          Nanos{}, {});
    // 32 requests of 128 B fetch 32 whole pages: 32x amplification.
    EXPECT_EQ(reader.deviceBytes().value(), 32u * 4096u);
}

TEST_F(ReaderFixture, FunctionalReadMatchesDeviceBytes)
{
    std::vector<std::uint8_t> page(4096);
    for (std::size_t i = 0; i < page.size(); ++i)
        page[i] = static_cast<std::uint8_t>(i * 3);
    nvme_.ftl().writeBytesFunctional(Lba{}, Bytes{}, page);

    HostFileReader reader(nvme_, 16);
    std::vector<std::uint8_t> out(128);
    reader.readVector(0, extents_, Bytes{256}, Bytes{128}, Nanos{},
                      out); // miss path
    for (int i = 0; i < 128; ++i)
        EXPECT_EQ(out[i], page[256 + i]);

    std::vector<std::uint8_t> out2(128);
    reader.readVector(0, extents_, Bytes{256}, Bytes{128}, Nanos{},
                      out2); // hit path
    EXPECT_EQ(out2, out);
}

} // namespace
} // namespace rmssd::host
