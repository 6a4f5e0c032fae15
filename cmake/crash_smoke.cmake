# End-to-end check of the crash harness's bug-catching path, run as a
# ctest:
#
#   cmake -DSWEEP=<path> -DREPLAY=<path> -DOUT_DIR=<dir> \
#         -P crash_smoke.cmake
#
# Runs crash_sweep with the deliberately broken marker-before-flush
# save order. The sweep must find a violation (exit 3), minimize the
# failing schedule, and write a replay file; crash_replay must then
# reproduce the violation from that file (exit 2).

include(${CMAKE_CURRENT_LIST_DIR}/smoke_run.cmake)
smoke_require(SWEEP REPLAY OUT_DIR)

file(MAKE_DIRECTORY ${OUT_DIR})
set(REPLAY_FILE ${OUT_DIR}/broken_marker.schedule)
file(REMOVE ${REPLAY_FILE})

smoke_run("sweep of the broken save order" EXPECT 3 CREATES ${REPLAY_FILE}
    COMMAND ${SWEEP}
        --broken-marker
        --stop-on-first
        --points=80
        --replay-out=${REPLAY_FILE})
smoke_run("replay of the violation" EXPECT 2
    COMMAND ${REPLAY} ${REPLAY_FILE})
message(STATUS "crash_smoke: broken order caught, minimized, replayed")
