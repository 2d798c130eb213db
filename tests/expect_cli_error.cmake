# Runs EXE with the space-separated ARGS and passes only if it exits with
# status 2 and its stderr contains "error: MESSAGE". A crash or abort
# (no numeric status) fails.
#
#   cmake -DEXE=path/to/cli "-DARGS=--flag=value" "-DMESSAGE=text" \
#         -P tests/expect_cli_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE stderr)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "exit status '${status}', want 2; stderr:\n${stderr}")
endif()
string(FIND "${stderr}" "error: ${MESSAGE}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr lacks 'error: ${MESSAGE}':\n${stderr}")
endif()
