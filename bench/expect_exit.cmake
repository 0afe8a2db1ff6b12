# ctest driver for the argument-rejection tests: runs BIN with ARGS (one
# space-separated string) and passes only if it exits with CODE and its
# stderr matches PATTERN.  PASS_REGULAR_EXPRESSION alone would ignore the
# exit status, so a binary that printed the error and went on would pass.
#
#   cmake -DBIN=<binary> -DARGS="--scael 12" -DCODE=2 -DPATTERN=<regex> -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args} RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT code STREQUAL "${CODE}" OR NOT err MATCHES "${PATTERN}")
  message(FATAL_ERROR "${BIN} ${ARGS}: exit ${code} (want ${CODE}), stderr:\n${err}")
endif()
