# Runs BENCH --help and fails unless it exits 0, its usage text contains
# every string in PRESENT and none in ABSENT.
#   cmake -DBENCH=<binary> [-DPRESENT=<a;b>] [-DABSENT=<a;b>] -P help_text.cmake
execute_process(COMMAND "${BENCH}" --help OUTPUT_VARIABLE text ERROR_VARIABLE err
                RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "${BENCH} --help exited '${code}': ${err}")
endif()
foreach(want IN LISTS PRESENT)
  string(FIND "${text}" "${want}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${BENCH} --help does not name '${want}':\n${text}")
  endif()
endforeach()
foreach(unwanted IN LISTS ABSENT)
  string(FIND "${text}" "${unwanted}" at)
  if(NOT at EQUAL -1)
    message(FATAL_ERROR "${BENCH} --help names '${unwanted}':\n${text}")
  endif()
endforeach()
