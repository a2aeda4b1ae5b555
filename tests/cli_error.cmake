# Runs one command that must fail cleanly: exit status EXPECT_RC and a
# stderr message containing EXPECT. CMD is the command line with its
# arguments joined by '|'. Usage:
#
#   cmake -DCMD=<exe>|<arg>... -DEXPECT=<text> -DEXPECT_RC=<n> -P cli_error.cmake
string(REPLACE "|" ";" argv "${CMD}")
execute_process(COMMAND ${argv} RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT_RC}")
  message(FATAL_ERROR "exit status '${rc}', want ${EXPECT_RC}: ${CMD}\n${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr lacks '${EXPECT}': ${CMD}\n${err}")
endif()
