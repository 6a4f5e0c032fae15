# End-to-end check of the formal-conditions battery, run as a ctest:
#
#   cmake -DSWEEP=<path> -DREPLAY=<path> -DOUT_DIR=<dir> \
#         -P conditions_smoke.cmake
#
# Runs crash_sweep with the planted ack-before-apply bug: each KV op
# is acknowledged at t and applied at t+30us on a 50us grid, and the
# AC failure at 5.010ms lands strictly inside one such gap — a
# responded operation with no surviving effect. The sweep must catch
# it as a durable-linearizability violation (exit 3), minimize the
# schedule, and write a replay file; crash_replay must reproduce the
# violation (exit 2); and a buffered-durable-linearizability-only
# sweep of the *same* buggy schedule must hold (exit 0) — the bug
# never persisted, so losing it is exactly what the buffered
# condition forgives. DL caught, BDL forgave: the separation, in CI.

include(${CMAKE_CURRENT_LIST_DIR}/smoke_run.cmake)
smoke_require(SWEEP REPLAY OUT_DIR)

file(MAKE_DIRECTORY ${OUT_DIR})
set(REPLAY_FILE ${OUT_DIR}/ack_before_apply.schedule)
file(REMOVE ${REPLAY_FILE})

set(BUG_FLAGS
    --ack-before-apply
    --ack-delay-us=30
    --ops=128
    --fail-delay-us=5010)

smoke_run("durable-linearizability sweep of the ack-before-apply bug"
    EXPECT 3 MATCHES "durable-lin" CREATES ${REPLAY_FILE}
    COMMAND ${SWEEP} ${BUG_FLAGS}
        --stop-on-first
        --points=80
        --replay-out=${REPLAY_FILE})
smoke_run("replay of the violation" EXPECT 2
    COMMAND ${REPLAY} ${REPLAY_FILE})
smoke_run("buffered-only sweep of the same schedule"
    COMMAND ${SWEEP} ${BUG_FLAGS}
        --condition=buffered
        --points=40)
message(STATUS
    "conditions_smoke: ack bug caught by DL, minimized, replayed; "
    "buffered sweep forgave it")
