# Runs BENCH at --smoke --check with --out and --trace, once at --jobs=1 and
# once at --jobs=8, and fails unless both runs exit 0, their stdout, --out
# and --trace files are byte-identical, and every --out line and the trace
# parse as JSON. ARGS adds flags to both runs. Needs CMake 3.19 or later,
# for string(JSON).
#   cmake -DBENCH=<binary> -DDIR=<work dir> [-DARGS=<flags>] -P jobs_determinism.cmake
cmake_minimum_required(VERSION 3.19)
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
foreach(jobs 1 8)
  execute_process(COMMAND "${BENCH}" --smoke --check --jobs=${jobs} ${ARGS}
                          --out=${DIR}/j${jobs}.jsonl --trace=${DIR}/j${jobs}.json
                  OUTPUT_FILE "${DIR}/j${jobs}.stdout" ERROR_VARIABLE err
                  RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${BENCH} --jobs=${jobs} exited '${code}': ${err}")
  endif()
endforeach()
foreach(ext stdout jsonl json)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${DIR}/j1.${ext}"
                          "${DIR}/j8.${ext}"
                  RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "${BENCH}: ${DIR}/j1.${ext} and j8.${ext} differ")
  endif()
endforeach()

file(READ "${DIR}/j1.json" trace)
string(JSON events ERROR_VARIABLE error LENGTH "${trace}" traceEvents)
if(error)
  message(FATAL_ERROR "${BENCH}: the --trace file is not a Chrome trace: ${error}")
endif()
# One JSON value per line: joined with commas into an array, the lines must
# parse, and the array must hold exactly one element per line.
file(READ "${DIR}/j1.jsonl" lines)
string(REGEX MATCHALL "\n" newlines "${lines}")
list(LENGTH newlines expected)
string(REGEX REPLACE "\n$" "" joined "${lines}")
string(REPLACE "\n" "," joined "${joined}")
string(JSON parsed ERROR_VARIABLE error LENGTH "[${joined}]")
if(error OR expected EQUAL 0 OR NOT parsed EQUAL expected)
  message(FATAL_ERROR "${BENCH}: want ${expected} JSON lines in --out, parsed '${parsed}': "
                      "${error}")
endif()
