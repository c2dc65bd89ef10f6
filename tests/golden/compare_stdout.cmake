# Runs a command and diffs its stdout against a golden file.
#
#   cmake -DGOLDEN=<file> -DACTUAL=<file> -P compare_stdout.cmake -- <cmd> [args...]
#
# The command's stdout is written to ACTUAL (kept for inspection on a
# mismatch); the script fails if the command exits non-zero or if the
# output differs from GOLDEN by even one byte.
set(cmd "")
set(seen_separator OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 1 ${last})
  if(seen_separator)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(seen_separator ON)
  endif()
endforeach()
if(NOT cmd OR NOT GOLDEN OR NOT ACTUAL)
  message(FATAL_ERROR "usage: cmake -DGOLDEN=f -DACTUAL=f -P compare_stdout.cmake -- cmd...")
endif()

execute_process(COMMAND ${cmd}
                OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "command failed (${rc}): ${cmd}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${GOLDEN}" "${ACTUAL}"
                RESULT_VARIABLE differs)
if(differs)
  file(READ "${ACTUAL}" actual_text)
  message(FATAL_ERROR
          "stdout differs from ${GOLDEN}; actual output (${ACTUAL}):\n"
          "${actual_text}")
endif()
