# End-to-end check of the salvage regime's bug-catching path, run as
# a ctest:
#
#   cmake -DSWEEP=<path> -DOUT_DIR=<dir> -P salvage_smoke.cmake
#
# Two runs of crash_sweep under the salvage regime:
#
#  1. Clean: every enumerated power-failure instant, with the KV
#     shards registered as tiered salvage regions, must hold all
#     invariants (exit 0) — intact regions salvaged, casualties
#     quarantined and rebuilt per shard, never silently corrupted.
#  2. Planted bug: with --trust-directory the restore skips the
#     per-region CRC re-verification, so injected media faults revive
#     corrupt bytes. The NoSilentCorruption checker must catch it
#     (exit 3).

include(${CMAKE_CURRENT_LIST_DIR}/smoke_run.cmake)
smoke_require(SWEEP OUT_DIR)

file(MAKE_DIRECTORY ${OUT_DIR})

smoke_run("salvage-regime sweep"
    COMMAND ${SWEEP}
        --salvage
        --points=60)
smoke_run("sweep of the checksum-skipping restore" EXPECT 3
    COMMAND ${SWEEP}
        --salvage
        --media-faults=2
        --media-fault-kind=0
        --trust-directory
        --stop-on-first
        --points=20)
message(STATUS
    "salvage_smoke: salvage sweep held; trust-directory bug caught")
