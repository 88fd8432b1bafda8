# Runs BINARY with the optional argument list ARGS, writes its stdout to
# ACTUAL and fails unless BINARY exits with EXIT (default 0) and ACTUAL
# equals GOLDEN byte for byte. Usage:
#   cmake -DBINARY=<exe> ["-DARGS=<arg>;<arg>..."] [-DEXIT=<code>]
#         -DGOLDEN=<file> -DACTUAL=<file> -P golden_stdout.cmake
# A deliberate output change is re-blessed by copying ACTUAL over GOLDEN.
if(NOT EXIT)
  set(EXIT 0)
endif()
list(JOIN ARGS " " shown)
execute_process(COMMAND ${BINARY} ${ARGS}
  OUTPUT_FILE ${ACTUAL}
  RESULT_VARIABLE status)
if(NOT status EQUAL EXIT)
  message(FATAL_ERROR "${BINARY} ${shown} exited with ${status}, not ${EXIT}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${ACTUAL} ${GOLDEN}
  RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR
    "stdout of ${BINARY} ${shown} differs from its golden; see\n"
    "  diff -u ${GOLDEN} ${ACTUAL}\n"
    "Copy the actual file over the golden to re-bless.")
endif()
