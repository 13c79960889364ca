# Checks bench_diff's verdicts on the two fixture reports in testdata/:
#   within_noise  median 10 -> 13 ms (+30%), IQRs 4 and 2   -> noise
#   real_move     median 10 -> 20 ms (+100%), IQRs 1 and 1  -> FAIL
#   steady        +0.5%                                     -> no flag
#   single_shot   +50%, no median/iqr columns               -> FAIL
#   faults_moved  median 10 -> 20 ms, and its integer minflt and
#                 fails_per_s cells moved too: still the same row
#                 (keyed and labelled by row, threads, reps)    -> FAIL
# With --fail-on-regress 20 the three FAIL rows set exit status 1; the
# noise row counts toward neither warnings nor failures (a FAIL row also
# counts as a warning). The reports' host parallelism probes (3.90 and
# 2.10) differ by more than 0.5, so a WARN host line precedes the rows.
#
#   cmake -DBENCH_DIFF=<bench_diff> -DDATA=<testdata dir> \
#         -P bench_diff_test.cmake
execute_process(
  COMMAND ${BENCH_DIFF} ${DATA}/bench_diff_old.json
          ${DATA}/bench_diff_new.json --fail-on-regress 20
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
message("${out}")
foreach(pattern
        "WARN +host parallelism 3.90 -> 2.10"
        "noise +within_noise"
        "FAIL +real_move"
        "FAIL +single_shot"
        "FAIL +faults_moved 2 9 +median_ms"
        "3 warning\\(s\\), 3 row\\(s\\) past the fail bound, 1 within noise")
  if(NOT out MATCHES "${pattern}")
    message(FATAL_ERROR "bench_diff output lacks /${pattern}/")
  endif()
endforeach()
if(out MATCHES "(WARN|FAIL) +(within_noise|steady)")
  message(FATAL_ERROR "bench_diff flagged a row inside its noise band")
endif()
if(out MATCHES "faults_moved +\\(new row\\)")
  message(FATAL_ERROR "bench_diff keyed a row on its measured cells")
endif()
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "bench_diff exited ${rc}, expected 1")
endif()
