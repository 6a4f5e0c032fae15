# Smoke test for the observability pipeline, run as a ctest:
#
#   cmake -DBENCH=<path> -DCHECKER=<path> -DOUT_DIR=<dir> \
#         -P trace_smoke.cmake
#
# Runs one fast bench with WSP_TRACE=all and the standard output
# flags, then validates the emitted trace/metrics files with
# trace_check. Fails the test when the bench exits nonzero, a file is
# missing, or the JSON shape is wrong.

include(${CMAKE_CURRENT_LIST_DIR}/smoke_run.cmake)
smoke_require(BENCH CHECKER OUT_DIR)

file(MAKE_DIRECTORY ${OUT_DIR})
set(TRACE_FILE ${OUT_DIR}/smoke_trace.json)
set(METRICS_FILE ${OUT_DIR}/smoke_metrics.json)

set(ENV{WSP_TRACE} all)
smoke_run("bench" CREATES ${TRACE_FILE} ${METRICS_FILE}
    COMMAND ${BENCH}
        --trace-out=${TRACE_FILE}
        --metrics-out=${METRICS_FILE})
smoke_run("validation"
    COMMAND ${CHECKER} --trace=${TRACE_FILE} --metrics=${METRICS_FILE})
message(STATUS "trace_smoke: trace and metrics JSON valid")
