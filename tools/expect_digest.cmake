# Runs a command and passes only if it exits 0 AND prints
# "schedule digest: <DIGEST>". CTest's PASS_REGULAR_EXPRESSION alone
# ignores the exit status, so a run that prints the pinned digest and
# then aborts, crashes at teardown or trips a sanitizer would pass.
#
#   cmake -DDIGEST=<hex> -P expect_digest.cmake -- <command> [args...]
if(NOT DEFINED DIGEST)
  message(FATAL_ERROR "expect_digest.cmake: -DDIGEST=<hex> is required")
endif()
set(cmd "")
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()
if(cmd STREQUAL "")
  message(FATAL_ERROR "expect_digest.cmake: no command after --")
endif()
execute_process(COMMAND ${cmd}
                OUTPUT_VARIABLE out ERROR_VARIABLE err
                RESULT_VARIABLE rc)
message("${out}${err}")
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "expect_digest.cmake: command exited with '${rc}'")
endif()
string(FIND "${out}" "schedule digest: ${DIGEST}" at)
if(at EQUAL -1)
  message(FATAL_ERROR
          "expect_digest.cmake: output lacks 'schedule digest: ${DIGEST}'")
endif()
