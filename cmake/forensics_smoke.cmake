# Smoke test for the post-mortem forensics pipeline, run as a ctest:
#
#   cmake -DSWEEP=<crash_sweep> -DINSPECT=<wsp_inspect> -DOUT_DIR=<dir> \
#         -P forensics_smoke.cmake
#
# Runs a small enumerated sweep with the NVRAM flight recorder enabled
# and captures the surviving image, then proves the forensics toolkit
# can consume it: wsp_inspect must find a valid recorder header,
# decode a sound ring, export a Chrome trace, and diff the image
# against itself without reporting differences.

include(${CMAKE_CURRENT_LIST_DIR}/smoke_run.cmake)
smoke_require(SWEEP INSPECT OUT_DIR)

file(MAKE_DIRECTORY ${OUT_DIR})
set(IMAGE_FILE ${OUT_DIR}/smoke_image.wspimg)
set(TRACE_FILE ${OUT_DIR}/smoke_blackbox_trace.json)

smoke_run("sweep" CREATES ${IMAGE_FILE}
    COMMAND ${SWEEP} --points=16 --image-out=${IMAGE_FILE})
# Decode: the image of a held sweep must contain a valid, sound ring.
smoke_run("decode" CREATES ${TRACE_FILE}
    COMMAND ${INSPECT} --image=${IMAGE_FILE} --require-header
        --trace-out=${TRACE_FILE})
# Diff: an image diffed against itself reports no differences.
smoke_run("self-diff"
    COMMAND ${INSPECT} --image=${IMAGE_FILE} --diff=${IMAGE_FILE} --quiet)
message(STATUS "forensics_smoke: decode + trace export + self-diff OK")
