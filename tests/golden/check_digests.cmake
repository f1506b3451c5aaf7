# Golden digest pin for one group of rows:
#
#   cmake -DCOMMAND=<program;args...> -DGROUP=<name> -DOUT=<dir>
#         -DMANIFEST=<file.sha256> -P check_digests.cmake
#
# Runs `COMMAND --out OUT`, which writes one file `OUT/<row>` per row and
# prints each row name on stdout, then compares the SHA-256 of every file
# with the row's `<row> <sha256>` line in the manifest. The rows of GROUP
# are the manifest lines that start with `GROUP.`; every one must be run
# and match. Used for the job-report matrix (tests/golden/job_reports.cc,
# whose reports are identical for every thread count, cache tier and
# transport) and the MPCKMeans result matrix (tests/golden/mpck_results.cc).
# To re-pin after an intended change, replace each mismatching line with
# the "actual" line printed below and say why in CHANGES.md.

foreach(var COMMAND GROUP OUT MANIFEST)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_digests.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE ${OUT})
execute_process(
  COMMAND ${COMMAND} --out ${OUT}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${COMMAND} exited with status ${status}\n${err}")
endif()

string(REGEX MATCHALL "[^\n]+" rows "${out}")
file(STRINGS ${MANIFEST} pinned REGEX "^${GROUP}\\.")
list(LENGTH rows row_count)
list(LENGTH pinned pinned_count)
set(mismatches "")
foreach(row ${rows})
  file(SHA256 ${OUT}/${row} digest)
  set(actual "${row} ${digest}")
  list(FIND pinned "${actual}" found)
  if(found EQUAL -1)
    string(REPLACE "." "\\." row_regex "${row}")
    file(STRINGS ${MANIFEST} expected REGEX "^${row_regex} ")
    string(APPEND mismatches
      "  expected: ${expected}\n"
      "  actual:   ${actual}\n")
  endif()
endforeach()
if(NOT mismatches STREQUAL "" OR NOT row_count EQUAL pinned_count)
  message(FATAL_ERROR
    "golden digest mismatch for ${GROUP} "
    "(${row_count} rows run, ${pinned_count} pinned)\n${mismatches}")
endif()
file(REMOVE_RECURSE ${OUT})
