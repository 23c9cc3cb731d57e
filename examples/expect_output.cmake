# Runs EXAMPLE and fails unless it exits 0 and its stdout contains EXPECT
# (skipped when EXPECT is empty).
#   cmake -DEXAMPLE=<binary> [-DEXPECT=<text>] -P expect_output.cmake
execute_process(COMMAND "${EXAMPLE}" OUTPUT_VARIABLE out ERROR_VARIABLE err
                RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited '${code}':\n${out}${err}")
endif()
if(NOT EXPECT STREQUAL "")
  string(FIND "${out}" "${EXPECT}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${EXAMPLE} does not print '${EXPECT}':\n${out}")
  endif()
endif()
