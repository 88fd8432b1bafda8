# Runs BINARY with the optional argument list ARGS, writes its stdout to
# ACTUAL and fails unless ACTUAL equals GOLDEN byte for byte. Usage:
#   cmake -DBINARY=<exe> ["-DARGS=<arg>;<arg>..."] -DGOLDEN=<file>
#         -DACTUAL=<file> -P golden_stdout.cmake
# A deliberate output change is re-blessed by copying ACTUAL over GOLDEN.
list(JOIN ARGS " " shown)
execute_process(COMMAND ${BINARY} ${ARGS}
  OUTPUT_FILE ${ACTUAL}
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BINARY} ${shown} exited with ${status}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${ACTUAL} ${GOLDEN}
  RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR
    "stdout of ${BINARY} ${shown} differs from its golden; see\n"
    "  diff -u ${GOLDEN} ${ACTUAL}\n"
    "Copy the actual file over the golden to re-bless.")
endif()
