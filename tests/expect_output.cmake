# Runs EXE without arguments and passes only if it exits with status 0
# and its stdout equals the file EXPECTED byte for byte. The stdout of the
# run is kept in ACTUAL; on a mismatch the diff is printed.
#
# MCHARGE_GOLDEN_UPDATE=1 in the environment is the only update mode: the
# run then rewrites EXPECTED with its stdout and passes. ctest never sets
# the variable.
#
#   cmake -DEXE=path/to/bench -DEXPECTED=tests/data/figures/x.txt \
#         -DACTUAL=x.out -P tests/expect_output.cmake
execute_process(COMMAND "${EXE}"
                RESULT_VARIABLE status
                OUTPUT_FILE "${ACTUAL}"
                ERROR_VARIABLE stderr)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "exit status '${status}', want 0; stderr:\n${stderr}")
endif()
if("$ENV{MCHARGE_GOLDEN_UPDATE}" STREQUAL "1")
  configure_file("${ACTUAL}" "${EXPECTED}" COPYONLY)
  message(STATUS "rewrote ${EXPECTED}")
  return()
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${EXPECTED}" "${ACTUAL}"
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  execute_process(COMMAND diff -u "${EXPECTED}" "${ACTUAL}"
                  OUTPUT_VARIABLE delta ERROR_QUIET)
  message(FATAL_ERROR "stdout differs from ${EXPECTED}:\n${delta}")
endif()
