# Runs BIN with ARGS and compares its stdout byte for byte against GOLDEN.
# On a mismatch the actual output is written to ACTUAL for diffing, and the
# failure message names the first differing line.
#
#   cmake -DBIN=... -DARGS=--quick -DGOLDEN=... -DACTUAL=... -P golden_diff.cmake
cmake_minimum_required(VERSION 3.16)
execute_process(COMMAND ${BIN} ${ARGS}
                OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS} exited with ${rc}")
endif()
file(READ ${GOLDEN} want)
if(NOT out STREQUAL want)
  file(WRITE ${ACTUAL} "${out}")
  # Walk both outputs line by line (string(FIND), not lists: a line may
  # hold a semicolon) up to the first line that differs.
  set(line 1)
  set(rest_want "${want}")
  set(rest_out "${out}")
  while(TRUE)
    string(FIND "${rest_want}" "\n" end_want)
    string(FIND "${rest_out}" "\n" end_out)
    string(SUBSTRING "${rest_want}" 0 ${end_want} line_want)
    string(SUBSTRING "${rest_out}" 0 ${end_out} line_out)
    if(NOT line_want STREQUAL line_out OR end_want EQUAL -1 OR end_out EQUAL -1)
      break()
    endif()
    math(EXPR end_want "${end_want} + 1")
    math(EXPR end_out "${end_out} + 1")
    string(SUBSTRING "${rest_want}" ${end_want} -1 rest_want)
    string(SUBSTRING "${rest_out}" ${end_out} -1 rest_out)
    math(EXPR line "${line} + 1")
  endwhile()
  if(rest_want STREQUAL "")
    set(line_want "<end of output>")
  endif()
  if(rest_out STREQUAL "")
    set(line_out "<end of output>")
  endif()
  message(FATAL_ERROR
          "stdout of ${BIN} ${ARGS} differs from ${GOLDEN} at line ${line}\n"
          "  expected: ${line_want}\n"
          "  actual:   ${line_out}\n"
          "actual output written to ${ACTUAL}")
endif()
