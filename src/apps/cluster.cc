#include "apps/cluster.h"

#include <algorithm>

#include "util/logging.h"

namespace wsp::apps {

StormReport
correlatedOutage(const ClusterConfig &config)
{
    WSP_CHECK(config.servers >= 1);
    StormReport report;

    BackendStore backend(config.backend);
    report.backendSingle =
        backend.recoveryTime(config.memoryPerServer, 1);
    // Storm: every server recovers at once; the shared back end
    // spreads its aggregate bandwidth across them.
    report.backendRecovery =
        backend.recoveryTime(config.memoryPerServer, config.servers);

    // WSP: each server restores from its own NVDIMMs, fully parallel
    // across servers and across modules within a server; only the
    // stale tail of updates comes from the back end, and even in a
    // storm that traffic is tiny.
    const auto stale_bytes = static_cast<uint64_t>(
        config.staleFraction *
        static_cast<double>(config.memoryPerServer));
    const Tick stale_fetch =
        backend.recoveryTime(stale_bytes, config.servers);

    report.wspRecovery =
        config.wspBootOverhead + nvdimmRestoreTime(config.nvdimm) +
        stale_fetch;
    report.speedup =
        static_cast<double>(report.backendRecovery) /
        static_cast<double>(std::max<Tick>(report.wspRecovery, 1));
    return report;
}

Tick
nvdimmRestoreTime(NvdimmConfig module)
{
    module.capacityBytes = std::max<uint64_t>(module.capacityBytes, 1);
    const double restore_bw =
        module.channelRestoreBw *
        std::max(1u, module.flashChannels == 0
                         ? static_cast<unsigned>(
                               (module.capacityBytes + kGiB - 1) / kGiB)
                         : module.flashChannels);
    return fromSeconds(static_cast<double>(module.capacityBytes) /
                       restore_bw);
}

Tick
reReplicationTime(const ReplicationConfig &config)
{
    WSP_CHECK(config.copyBandwidth > 0.0);
    return fromSeconds(static_cast<double>(config.stateBytes) /
                       config.copyBandwidth);
}

Tick
wspCatchupTime(const ReplicationConfig &config, Tick outage)
{
    // Updates missed during (outage + recovery) must be streamed; the
    // stream itself falls behind by rate/bandwidth, converging when
    // rate < bandwidth: total transfer = missed / (1 - rate/bw).
    WSP_CHECK(config.updateRateBytesPerSec < config.copyBandwidth);
    const double behind_seconds =
        toSeconds(outage + config.wspRecoveryTime);
    const double missed_bytes =
        config.updateRateBytesPerSec * behind_seconds;
    const double stream_seconds =
        missed_bytes /
        (config.copyBandwidth - config.updateRateBytesPerSec);
    return outage + config.wspRecoveryTime + fromSeconds(stream_seconds);
}

Tick
breakEvenOutage(const ReplicationConfig &config)
{
    // Solve wspCatchupTime(t) = reReplicationTime for t: with
    // r = rate, b = bandwidth, R = wsp recovery, S = state/b:
    //   (t + R) * (1 + r/(b-r)) = S  =>  t = S*(b-r)/b - R.
    const double b = config.copyBandwidth;
    const double r = config.updateRateBytesPerSec;
    const double s_seconds = toSeconds(reReplicationTime(config));
    const double t =
        s_seconds * (b - r) / b - toSeconds(config.wspRecoveryTime);
    return t <= 0.0 ? 0 : fromSeconds(t);
}

} // namespace wsp::apps
