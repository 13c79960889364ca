# `ndpcr failures` with a non-finite parameter must exit 2 with a one-line
# `ndpcr: <reason>` on stderr - not abort, and not print a table from a
# NaN model. WILL_FAIL would accept an abort as readily as exit 2, so
# the exit code is checked here.
#
#   cmake -DNDPCR=<ndpcr> -P failures_invalid_test.cmake
execute_process(
  COMMAND ${NDPCR} failures --nodes 1000 --failures 1000
          --distribution weibull --weibull-shape nan
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
message("stdout: ${out}")
message("stderr: ${err}")
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "ndpcr exited '${rc}', expected 2")
endif()
if(NOT err MATCHES "^ndpcr: weibull shape must be positive")
  message(FATAL_ERROR "stderr lacks the ndpcr: <reason> line")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "ndpcr printed results for an invalid config")
endif()
