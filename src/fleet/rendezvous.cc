#include "fleet/rendezvous.h"

#include <algorithm>

#include "util/logging.h"

namespace wsp::fleet {

void
RendezvousHash::addNode(uint32_t node)
{
    WSP_CHECKF(node < kMaxNodes, "node id %u beyond the placement mask",
               node);
    const auto it = std::lower_bound(nodes_.begin(), nodes_.end(), node);
    if (it != nodes_.end() && *it == node)
        return;
    nodes_.insert(it, node);
}

void
RendezvousHash::removeNode(uint32_t node)
{
    const auto it = std::lower_bound(nodes_.begin(), nodes_.end(), node);
    if (it != nodes_.end() && *it == node)
        nodes_.erase(it);
}

bool
RendezvousHash::contains(uint32_t node) const
{
    return std::binary_search(nodes_.begin(), nodes_.end(), node);
}

uint64_t
RendezvousHash::score(uint32_t node, uint64_t key)
{
    // Mix the pair through the murmur3 finalizer. The node id is
    // pre-spread by the golden-ratio constant so ids 0, 1, 2, ...
    // land far apart before they meet the key bits.
    uint64_t h = key ^ ((static_cast<uint64_t>(node) + 1) *
                        0x9e3779b97f4a7c15ull);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return h;
}

unsigned
RendezvousHash::select(uint64_t key, unsigned r,
                       uint32_t (&best)[kMaxNodes]) const
{
    // Insertion into a best-first array of at most `take` entries.
    // nodes_ ascends by id, so a strict comparison leaves an equal
    // score behind the lower id already placed: the tie break.
    uint64_t scores[kMaxNodes];
    const auto take =
        static_cast<unsigned>(std::min<size_t>(r, nodes_.size()));
    unsigned count = 0;
    for (uint32_t node : nodes_) {
        const uint64_t s = score(node, key);
        unsigned pos = count;
        while (pos > 0 && s > scores[pos - 1])
            --pos;
        if (pos >= take)
            continue;
        if (count < take)
            ++count;
        for (unsigned i = count - 1; i > pos; --i) {
            scores[i] = scores[i - 1];
            best[i] = best[i - 1];
        }
        scores[pos] = s;
        best[pos] = node;
    }
    return count;
}

std::vector<uint32_t>
RendezvousHash::replicaSet(uint64_t key, unsigned r) const
{
    uint32_t best[kMaxNodes];
    const unsigned count = select(key, r, best);
    return std::vector<uint32_t>(best, best + count);
}

uint64_t
RendezvousHash::replicaMask(uint64_t key, unsigned r) const
{
    uint32_t best[kMaxNodes];
    const unsigned count = select(key, r, best);
    uint64_t mask = 0;
    for (unsigned i = 0; i < count; ++i)
        mask |= uint64_t{1} << best[i];
    return mask;
}

uint32_t
RendezvousHash::primary(uint64_t key) const
{
    WSP_CHECK(!nodes_.empty());
    uint32_t best[kMaxNodes];
    select(key, 1, best);
    return best[0];
}

} // namespace wsp::fleet
