# Threaded-serving perf gate, run as a ctest:
#
#   cmake -DBENCH=<kv_throughput> -DSUMMARY=<bench_summary> \
#         -DOUT_DIR=<dir> -P kv_throughput_smoke.cmake
#
#  1. Runs the bench — its own shape check asserts the dispatch-arm
#     ratio (rings vs per-op mutex; >= 5x with real cores, the honest
#     single-core floor otherwise), the exact sequential-replay
#     equivalence, and determinism;
#  2. runs it again into the same record file and gates the trajectory
#     with `bench_summary --gate`, so the regression-gate plumbing
#     itself is exercised end to end (two back-to-back runs of the
#     same binary must sit well inside the allowed drop).

include(${CMAKE_CURRENT_LIST_DIR}/smoke_run.cmake)
smoke_require(BENCH SUMMARY OUT_DIR)

# Fresh record dir per ctest invocation: the gate below must compare
# exactly this pair of runs, not whatever history earlier invocations
# accumulated.
set(RECORD_DIR ${OUT_DIR}/kv_throughput_records)
file(REMOVE_RECURSE ${RECORD_DIR})
file(MAKE_DIRECTORY ${RECORD_DIR})

foreach(run RANGE 1 2)
    smoke_run("bench shape check on run ${run}"
        COMMAND ${BENCH} --metrics-out=${RECORD_DIR}/metrics_${run}.json)
endforeach()

# Back-to-back runs of the same binary on the same host: the dispatch
# ratio must hold within generous noise (the bench's own shape check
# already enforced the absolute floor twice above).
smoke_run("bench_summary gate"
    COMMAND ${SUMMARY} ${RECORD_DIR}
        --gate=bench.kv_throughput.ratio_vs_perop:40)
message(STATUS
    "kv_throughput_smoke: dispatch-arm shape checks and trajectory gate clean")
