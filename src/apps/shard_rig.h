/**
 * @file
 * Shard rig: N private simulated shard machines plus the
 * ShardedKvStore striped over them.
 *
 * The paper's motivating deployments are main-memory stores serving
 * heavy concurrent traffic (sections 1-2). The cache and
 * sparse-memory models are deliberately simple and not thread-safe,
 * so every shard runs over its own private environment (event queue,
 * NVDIMM, NVRAM space, write-back cache) and the store serializes
 * access per shard with its stripe lock. Two threads on different
 * shards share no simulator state at all; two threads on the same
 * shard queue on its mutex, exactly like a striped production store.
 * The traffic plane's tests and benches build their stores here.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/kv_store.h"
#include "machine/cache.h"
#include "nvram/nvdimm.h"
#include "nvram/nvram_space.h"
#include "sim/event_queue.h"

namespace wsp::apps {

/**
 * One shard's private simulated machine slice. Members are declared
 * in dependency order: the queue feeds the NVDIMM, the space routes
 * to it, the cache writes through to the space.
 */
struct ShardEnvironment
{
    ShardEnvironment(const std::string &name, uint64_t nvdimm_bytes,
                     CacheModel::LineStore line_store =
                         CacheModel::LineStore::Flat);

    EventQueue queue;
    NvdimmModule dimm;
    NvramSpace space;
    CacheModel cache;
};

/**
 * A fresh ShardedKvStore over @p shards private environments, each
 * module spanning the whole striped region (every shard addresses its
 * slice of the layout inside its own space).
 */
class ShardRig
{
  public:
    ShardRig(const std::string &tag, unsigned shards,
             uint64_t per_shard_capacity,
             CacheModel::LineStore line_store = CacheModel::LineStore::Flat);

    ShardedKvStore &store() { return *store_; }

  private:
    std::vector<std::unique_ptr<ShardEnvironment>> environments_;
    std::unique_ptr<ShardedKvStore> store_;
};

} // namespace wsp::apps
