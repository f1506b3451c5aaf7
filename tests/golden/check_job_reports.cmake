# Golden report pin for one clusterer's rows of the job matrix:
#
#   cmake -DREPORTS=<job_reports> -DCLUSTERER=<name> -DOUT=<dir>
#         -DMANIFEST=<job_reports.sha256> -P check_job_reports.cmake
#
# Runs the matrix (tests/golden/job_reports.cc) for CLUSTERER, then
# compares the SHA-256 of every encoded CvcpReport it wrote with the row's
# `<row> <sha256>` line in the manifest. Every row must match: reports are
# identical for every thread count, cache tier and transport, and the
# manifest pins their absolute bytes. To re-pin after an intended report
# change, replace each mismatching line with the "actual" line printed
# below and say why in CHANGES.md.

foreach(var REPORTS CLUSTERER OUT MANIFEST)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_job_reports.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE ${OUT})
execute_process(
  COMMAND ${REPORTS} --out ${OUT} --clusterer ${CLUSTERER}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${REPORTS} --clusterer ${CLUSTERER} exited with status ${status}\n${err}")
endif()

string(REGEX MATCHALL "[^\n]+" rows "${out}")
file(STRINGS ${MANIFEST} pinned REGEX "^${CLUSTERER}\\.")
list(LENGTH rows row_count)
list(LENGTH pinned pinned_count)
set(mismatches "")
foreach(row ${rows})
  file(SHA256 ${OUT}/${row}.rprt digest)
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
    "golden report mismatch for ${CLUSTERER} "
    "(${row_count} rows run, ${pinned_count} pinned)\n${mismatches}")
endif()
file(REMOVE_RECURSE ${OUT})
