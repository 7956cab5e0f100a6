# Run one CLI invocation and check how it ends:
#
#   cmake -DTOOL=<exe> -DARGS="<args>" -DSTATUS=ok|usage \
#         -DMUST="<words>" [-DMUST_NOT="<words>"] -P expect_output.cmake
#
# STATUS ok wants exit status 0, usage wants 1 (fatal() and usage
# errors exit 1; a crash is never a usage error). The merged stdout and
# stderr must contain every word of MUST and no word of MUST_NOT.
# ARGS, MUST and MUST_NOT are space-separated.

separate_arguments(args UNIX_COMMAND "${ARGS}")
separate_arguments(must UNIX_COMMAND "${MUST}")
separate_arguments(must_not UNIX_COMMAND "${MUST_NOT}")
execute_process(COMMAND "${TOOL}" ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)

if(STATUS STREQUAL "ok")
  set(want 0)
else()
  set(want 1)
endif()
if(NOT rc STREQUAL want)
  message(FATAL_ERROR "'${ARGS}' exited '${rc}', expected ${want}:\n${out}")
endif()
foreach(word IN LISTS must)
  string(FIND "${out}" "${word}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "'${ARGS}' output lacks '${word}':\n${out}")
  endif()
endforeach()
foreach(word IN LISTS must_not)
  string(FIND "${out}" "${word}" pos)
  if(NOT pos EQUAL -1)
    message(FATAL_ERROR "'${ARGS}' output has '${word}':\n${out}")
  endif()
endforeach()
