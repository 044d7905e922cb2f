# Run one bench command line and demand exit status CODE and stderr
# matching REGEX:
#   cmake -DCMD=<binary> -DARGS=<arg;...> -DCODE=2 -DREGEX=<re>
#         -P expect_exit.cmake
# ctest's PASS_REGULAR_EXPRESSION ignores the exit status, so tests that
# pin both go through this script.
execute_process(COMMAND ${CMD} ${ARGS}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
message("${err}")
if(NOT status STREQUAL "${CODE}")
    message(FATAL_ERROR "expected exit status ${CODE}, got ${status}")
endif()
if(NOT err MATCHES "${REGEX}")
    message(FATAL_ERROR "stderr does not match '${REGEX}'")
endif()
