# Writes FILE, runs `BENCH --smoke FLAG=FILE EXTRA`, and fails unless the
# bench exits 2 and FILE still holds exactly what was written.
#   cmake -DBENCH=<binary> -DFLAG=--out -DFILE=<path> [-DEXTRA=<flag>] -P rejected_flag_keeps_file.cmake
set(contents "written before the bench ran\n")
file(WRITE "${FILE}" "${contents}")
execute_process(COMMAND "${BENCH}" --smoke "${FLAG}=${FILE}" ${EXTRA}
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 30)
file(READ "${FILE}" after)
file(REMOVE "${FILE}")
if(NOT code EQUAL 2)
  message(FATAL_ERROR "${BENCH} ${FLAG}=${FILE} ${EXTRA} exited '${code}', want 2: ${err}")
endif()
if(NOT after STREQUAL contents)
  message(FATAL_ERROR "${FILE} changed: '${after}'")
endif()
