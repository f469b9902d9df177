# Runs BIN with ARGS and compares its stdout byte for byte against GOLDEN.
# On a mismatch the actual output is written to ACTUAL for diffing.
#
#   cmake -DBIN=... -DARGS=--quick -DGOLDEN=... -DACTUAL=... -P golden_diff.cmake
execute_process(COMMAND ${BIN} ${ARGS}
                OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS} exited with ${rc}")
endif()
file(READ ${GOLDEN} want)
if(NOT out STREQUAL want)
  file(WRITE ${ACTUAL} "${out}")
  message(FATAL_ERROR
          "stdout of ${BIN} ${ARGS} differs from ${GOLDEN}; actual output "
          "written to ${ACTUAL}")
endif()
