# Fails unless every instantiation of the batch pipeline's block loops
# (ccf::batch_pipeline_internal::RunBlocks<...> and RunBlocksTwoWave<...>)
# in a library holds at least one prefetch instruction.
#
#   cmake -DOBJDUMP=<objdump> -DLIBRARY=<libccf_core.a> -DOUT=<file> \
#         -P prefetch_emitted.cmake
#
# GCC treats __builtin_prefetch as free of side effects: a call to a
# function whose only effect is a prefetch is deleted as pure before it can
# be inlined, and a block loop then streams its misses one by one. The
# disassembly goes to OUT (kept on failure). Cold split parts
# ("[clone .cold]") hold no loop and are skipped.
if(NOT OBJDUMP OR NOT LIBRARY OR NOT OUT)
  message(FATAL_ERROR
          "usage: cmake -DOBJDUMP=x -DLIBRARY=lib -DOUT=f -P prefetch_emitted.cmake")
endif()

execute_process(COMMAND "${OBJDUMP}" -d -C --no-show-raw-insn "${LIBRARY}"
                OUTPUT_FILE "${OUT}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${OBJDUMP} -d failed (${rc}) on ${LIBRARY}")
endif()
# Object headers, function headers and prefetch instructions only.
file(STRINGS "${OUT}" lines REGEX "file format|^[0-9a-f]+ <|\tprefetch")

set(object "")
set(loop "")
set(report "")
set(failures 0)
set(loops 0)
set(insert_loops 0)
macro(close_loop)
  if(loop)
    math(EXPR loops "${loops} + 1")
    if(prefetches EQUAL 0)
      math(EXPR failures "${failures} + 1")
      string(APPEND report "  MISSING  ${loop}\n")
    else()
      string(APPEND report "  ${prefetches} prefetches  ${loop}\n")
    endif()
    set(loop "")
  endif()
endmacro()

foreach(line IN LISTS lines)
  if(line MATCHES "^([^ ]+\\.o):[ \t]+file format")
    set(object "${CMAKE_MATCH_1}")
  elseif(line MATCHES "^[0-9a-f]+ <")
    close_loop()
    if(line MATCHES "\\[clone \\.cold\\]>:$")
      continue()
    endif()
    if(line MATCHES "batch_pipeline_internal::(RunBlocks|RunBlocksTwoWave)<")
      set(kind "${CMAKE_MATCH_1}")
      # The first ccf::Class::Method( in the name is the calling method.
      string(REGEX MATCH "ccf::[A-Za-z_]+::[A-Za-z_]+\\(" caller "${line}")
      set(loop "${object}: ${kind} of ${caller}...)")
      set(prefetches 0)
      if(kind STREQUAL "RunBlocksTwoWave" AND caller MATCHES "InsertBatch")
        math(EXPR insert_loops "${insert_loops} + 1")
      endif()
    endif()
  elseif(loop)
    math(EXPR prefetches "${prefetches} + 1")
  endif()
endforeach()
close_loop()

message("${loops} block loops in ${LIBRARY}:\n${report}")
if(insert_loops EQUAL 0)
  message(FATAL_ERROR "no RunBlocksTwoWave instantiation of an InsertBatch "
                      "found: the check would prove nothing")
endif()
if(failures GREATER 0)
  message(FATAL_ERROR "${failures} of ${loops} block loops issue no prefetch "
                      "(disassembly kept in ${OUT})")
endif()
file(REMOVE "${OUT}")
