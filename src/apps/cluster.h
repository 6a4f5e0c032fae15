/**
 * @file
 * Cluster recovery-storm model.
 *
 * The paper's opening motivation (sections 1-2): a correlated power
 * outage makes 10s-100s of main-memory servers refresh terabytes
 * from a shared back end at once — the Facebook 2010 outage took
 * 2.5 hours — while WSP lets every server recover locally and in
 * parallel from its own NVDIMMs. This model quantifies both regimes
 * for a configurable cluster.
 */

#pragma once

#include <cstdint>

#include "apps/backend_store.h"
#include "nvram/nvdimm.h"
#include "util/units.h"

namespace wsp::apps {

/** Cluster and per-server parameters. */
struct ClusterConfig
{
    unsigned servers = 100;
    uint64_t memoryPerServer = 256ull * 1024 * 1024 * 1024;
    BackendConfig backend;

    /** Per-server NVDIMM configuration (for the WSP regime). */
    NvdimmConfig nvdimm;

    /** Firmware + OS resume overhead per server on the WSP path. */
    Tick wspBootOverhead = fromSeconds(10.0);

    /** Fraction of updates since the checkpoint that must be
     *  re-fetched even under WSP (the state is slightly stale). */
    double staleFraction = 0.001;
};

/** Recovery times for a correlated whole-cluster outage. */
struct StormReport
{
    Tick backendRecovery = 0; ///< storm: all servers on the back end
    Tick backendSingle = 0;   ///< one server alone on the back end
    Tick wspRecovery = 0;     ///< all servers restore locally
    double speedup = 0.0;     ///< backendRecovery / wspRecovery
};

/** Compute both regimes for a correlated outage of the whole cluster. */
StormReport correlatedOutage(const ClusterConfig &config);

/**
 * Time for one server's NVDIMM to restore its whole capacity from
 * flash: one channel per GiB in parallel unless the module names its
 * channel count. Both the closed-form storm and the fleet's modelled
 * boot use this, so they agree exactly.
 */
Tick nvdimmRestoreTime(NvdimmConfig module);

/**
 * Replica-management tradeoff (paper section 6, "Long outages"):
 * when one replica of a state-machine-replicated service fails, the
 * system can immediately re-instantiate a fresh replica (full state
 * copy from a live one) or wait for the failed server to come back
 * with its NVRAM state and only stream it the updates it missed.
 */
struct ReplicationConfig
{
    uint64_t stateBytes = 256ull * 1024 * 1024 * 1024;

    /** Replica-to-replica copy bandwidth (network-bound). */
    double copyBandwidth = 1.25e9; // 10 GbE

    /** Rate at which the live replicas accrue new updates. */
    double updateRateBytesPerSec = 10.0e6;

    /** Local WSP recovery time of the failed server once power is
     *  back (boot + NVDIMM restore). */
    Tick wspRecoveryTime = fromSeconds(15.0);
};

/** Time to bring up a brand-new replica by full state copy. */
Tick reReplicationTime(const ReplicationConfig &config);

/**
 * Time from failure to a fully caught-up replica when waiting out an
 * outage of @p outage and recovering via WSP: the outage itself, the
 * local recovery, and streaming the updates missed meanwhile (which
 * themselves accrue more updates while streaming).
 */
Tick wspCatchupTime(const ReplicationConfig &config, Tick outage);

/**
 * The outage duration at which immediate re-replication becomes
 * faster than waiting for WSP recovery. Returns 0 when
 * re-replication always wins (e.g. tiny state).
 */
Tick breakEvenOutage(const ReplicationConfig &config);

} // namespace wsp::apps
