# Shared step runner for the `cmake -P` smoke drivers in this
# directory:
#
#   include(${CMAKE_CURRENT_LIST_DIR}/smoke_run.cmake)
#   smoke_require(<var>...)
#   smoke_run(<what> [EXPECT <rc>] [MATCHES <regex>] [CREATES <file>...]
#             COMMAND <program> <args>...)
#
# smoke_run runs the command with stdout and stderr captured together.
# It stops the script with FATAL_ERROR, naming the driver and <what>
# and showing the output, unless the exit code is exactly <rc>
# (default 0), the output matches <regex> when one is given, and every
# CREATES file exists afterwards.

get_filename_component(SMOKE_NAME ${CMAKE_SCRIPT_MODE_FILE} NAME_WE)

macro(smoke_require)
    foreach(var ${ARGN})
        if(NOT ${var})
            message(FATAL_ERROR "${SMOKE_NAME}: -D${var}=... is required")
        endif()
    endforeach()
endmacro()

function(smoke_run what)
    cmake_parse_arguments(PARSE_ARGV 1 arg "" "EXPECT;MATCHES"
        "CREATES;COMMAND")
    if(NOT DEFINED arg_EXPECT)
        set(arg_EXPECT 0)
    endif()
    execute_process(COMMAND ${arg_COMMAND}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE out)
    if(NOT rc EQUAL arg_EXPECT)
        message(FATAL_ERROR "${SMOKE_NAME}: ${what}: expected "
            "rc=${arg_EXPECT}, got rc=${rc}:\n${out}")
    endif()
    if(DEFINED arg_MATCHES AND NOT out MATCHES "${arg_MATCHES}")
        message(FATAL_ERROR "${SMOKE_NAME}: ${what}: output does not "
            "match '${arg_MATCHES}':\n${out}")
    endif()
    foreach(created ${arg_CREATES})
        if(NOT EXISTS ${created})
            message(FATAL_ERROR
                "${SMOKE_NAME}: ${what}: did not write ${created}:\n${out}")
        endif()
    endforeach()
endfunction()
