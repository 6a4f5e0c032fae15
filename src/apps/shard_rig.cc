#include "apps/shard_rig.h"

#include "util/units.h"

namespace wsp::apps {

namespace {

NvdimmConfig
moduleConfig(uint64_t bytes)
{
    NvdimmConfig config;
    // Round up to a MiB so tiny stores don't create degenerate
    // modules; flash channels stay on the one-per-GiB auto rule.
    config.capacityBytes = ((bytes + kMiB - 1) / kMiB) * kMiB;
    return config;
}

} // namespace

ShardEnvironment::ShardEnvironment(const std::string &name,
                                   uint64_t nvdimm_bytes,
                                   CacheModel::LineStore line_store)
    : dimm(queue, name, moduleConfig(nvdimm_bytes)),
      cache(name + ".cache", 2 * kMiB, CacheTiming{}, space, line_store)
{
    space.addModule(dimm);
}

ShardRig::ShardRig(const std::string &tag, unsigned shards,
                   uint64_t per_shard_capacity,
                   CacheModel::LineStore line_store)
{
    const uint64_t region =
        ShardedKvStore::regionBytes(shards, per_shard_capacity);
    std::vector<CacheModel *> caches;
    for (unsigned i = 0; i < shards; ++i) {
        environments_.push_back(std::make_unique<ShardEnvironment>(
            tag + std::to_string(i), region, line_store));
        caches.push_back(&environments_.back()->cache);
    }
    store_ = std::make_unique<ShardedKvStore>(
        std::span<CacheModel *const>(caches), 0, per_shard_capacity);
}

} // namespace wsp::apps
