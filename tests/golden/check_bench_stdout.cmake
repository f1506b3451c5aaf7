# Golden stdout check for one cvcp_bench entry:
#
#   cmake -DBENCH=<cvcp_bench> -DENTRY=<entry> -DMANIFEST=<bench_stdout.sha256>
#         -P check_bench_stdout.cmake
#
# Runs the entry at a small fixed scale, drops the 4-line banner (it names
# the thread/cache setting), and compares the SHA-256 of the remaining
# stdout with the entry's `<entry> <sha256>` line in the manifest. Output
# is identical for every thread count, cache and store setting, so one
# digest per entry holds everywhere. To re-pin after an intended output
# change, replace the entry's line with the "actual" line printed below.

foreach(var BENCH ENTRY MANIFEST)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_bench_stdout.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(
  COMMAND ${BENCH} ${ENTRY} --trials 2 --aloi 2 --folds 2 --threads 2
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ENTRY} exited with status ${status}\n${err}")
endif()

# REGEX REPLACE would re-anchor "^" after each match, so cut by length.
string(REGEX MATCH "^[^\n]*\n[^\n]*\n[^\n]*\n[^\n]*\n" banner "${out}")
string(LENGTH "${banner}" banner_bytes)
string(SUBSTRING "${out}" ${banner_bytes} -1 body)
string(SHA256 digest "${body}")
set(actual "${ENTRY} ${digest}")

file(STRINGS ${MANIFEST} expected REGEX "^${ENTRY} ")
if(NOT expected STREQUAL actual)
  message(FATAL_ERROR
    "golden stdout mismatch for ${ENTRY}\n"
    "  expected: ${expected}\n"
    "  actual:   ${actual}")
endif()
