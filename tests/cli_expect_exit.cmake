# Runs a command and passes only when it exits with EXPECTED_EXIT and, if
# EXPECTED_STDERR is set, its stderr matches that regex:
#
#   cmake -DEXPECTED_EXIT=1 -DEXPECTED_STDERR=--batch \
#         -P cli_expect_exit.cmake -- <program> <args...>
#
# ctest's WILL_FAIL accepts any nonzero exit; the CLI's usage errors (exit
# 1) must stay apart from runtime failures (exit 2). The command gets 10 s:
# a server command that wrongly accepts its flags starts serving, and must
# fail the test instead of hanging ctest.
set(command)
set(collect FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(collect)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(collect TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "no command after --")
endif()

execute_process(COMMAND ${command} RESULT_VARIABLE code
                OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 10)
message("${out}${err}")
if(NOT code STREQUAL "${EXPECTED_EXIT}")
  message(FATAL_ERROR "exit code ${code}, expected ${EXPECTED_EXIT}")
endif()
if(DEFINED EXPECTED_STDERR AND NOT err MATCHES "${EXPECTED_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECTED_STDERR}'")
endif()
