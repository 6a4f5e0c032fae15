/**
 * @file
 * Rendezvous (highest-random-weight) placement for the fleet.
 *
 * Every key is served by the R live-or-dark nodes with the highest
 * score(node, key), where the score is a murmur-style 64-bit mix of
 * the node id and the key. HRW gives the fleet the property the
 * BigWorld exemplar tests for its database placement: when a node
 * joins or leaves, only the keys whose top-R set actually contained
 * (or now contains) that node move — ~K/N of them — and every other
 * replica set is untouched. No ring state beyond the node list is
 * needed, so placement survives arbitrary crash/recovery histories
 * bit-for-bit deterministically.
 */

#pragma once

#include <cstdint>
#include <vector>

namespace wsp::fleet {

/** HRW placement over a mutable node set. */
class RendezvousHash
{
  public:
    /** Node ids are 0..kMaxNodes-1, so a replica set fits one mask. */
    static constexpr uint32_t kMaxNodes = 64;

    RendezvousHash() = default;

    /** Add @p node (< kMaxNodes) to the candidate set (idempotent). */
    void addNode(uint32_t node);

    /** Remove @p node; no-op when absent. */
    void removeNode(uint32_t node);

    bool contains(uint32_t node) const;

    /** Current candidate nodes, ascending by id. */
    const std::vector<uint32_t> &nodes() const { return nodes_; }

    /**
     * The placement score of @p node for @p key: a murmur3-finalizer
     * mix over node-id x key. Pure function — identical across every
     * process that ever computes it.
     */
    static uint64_t score(uint32_t node, uint64_t key);

    /**
     * The replica set of @p key: the min(r, nodes) candidates with the
     * highest scores, ordered best-first (element 0 is the primary).
     * Ties break toward the lower node id (scores are 64-bit mixes, so
     * ties are vanishingly rare; the break just pins determinism).
     */
    std::vector<uint32_t> replicaSet(uint64_t key, unsigned r) const;

    /** replicaSet() as a membership mask: bit i set iff node i is in
     *  it. Allocation-free; membership is then one bit test. */
    uint64_t replicaMask(uint64_t key, unsigned r) const;

    /** The primary owner of @p key; nodes() must be non-empty. */
    uint32_t primary(uint64_t key) const;

  private:
    /** The top-min(r, nodes) candidates of @p key into @p best,
     *  best-first; returns how many. */
    unsigned select(uint64_t key, unsigned r,
                    uint32_t (&best)[kMaxNodes]) const;

    std::vector<uint32_t> nodes_;
};

} // namespace wsp::fleet
