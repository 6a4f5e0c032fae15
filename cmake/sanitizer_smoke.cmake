# Sanitizer smoke test, run as a ctest:
#
#   cmake -DSOURCE_DIR=<repo> -DOUT_DIR=<dir> -DSANITIZER=<address|thread> \
#         "-DRUNS=<binary> [<args>...]|<binary> [<args>...]|..." \
#         -P sanitizer_smoke.cmake
#
# Configures a sub-build of the tree with -DWSP_SANITIZE=<SANITIZER>
# (the tree's sanitizer hook), builds the test binaries that RUNS
# names, and runs each with its arguments, in order. halt_on_error
# turns any sanitizer report into a nonzero exit so the ctest fails
# loudly. The sub-build directory persists across runs, so re-runs
# are incremental.

include(${CMAKE_CURRENT_LIST_DIR}/smoke_run.cmake)
smoke_require(SOURCE_DIR OUT_DIR SANITIZER RUNS)

string(REPLACE "|" ";" runs "${RUNS}")
set(targets)
foreach(run IN LISTS runs)
    separate_arguments(argv UNIX_COMMAND "${run}")
    list(GET argv 0 binary)
    list(APPEND targets ${binary})
endforeach()
list(REMOVE_DUPLICATES targets)

file(MAKE_DIRECTORY ${OUT_DIR})
smoke_run("configure"
    COMMAND ${CMAKE_COMMAND} -G Ninja -S ${SOURCE_DIR} -B ${OUT_DIR}
        -DCMAKE_BUILD_TYPE=Release
        -DWSP_SANITIZE=${SANITIZER})
smoke_run("build"
    COMMAND ${CMAKE_COMMAND} --build ${OUT_DIR} --target ${targets})

set(ENV{ASAN_OPTIONS} "halt_on_error=1")
set(ENV{TSAN_OPTIONS} "halt_on_error=1")
foreach(run IN LISTS runs)
    separate_arguments(argv UNIX_COMMAND "${run}")
    list(POP_FRONT argv binary)
    smoke_run("${binary} under -fsanitize=${SANITIZER}"
        COMMAND ${OUT_DIR}/tests/${binary} ${argv})
endforeach()
list(JOIN targets " " built)
message(STATUS "${SMOKE_NAME}: ${built} clean under ${SANITIZER}")
