# Determinism gate: runs TARGET once with the argument list RUN_A and once
# with RUN_B, and fails unless both exit 0 with byte-identical stdout.
# stderr (wall-clock times, shard statistics) is ignored.
#
#   cmake -DTARGET=<exe> "-DRUN_A=<args>" "-DRUN_B=<args>" -P invariance.cmake
foreach(run A B)
  execute_process(COMMAND ${TARGET} ${RUN_${run}}
                  OUTPUT_VARIABLE out_${run}
                  ERROR_QUIET
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${TARGET} ${RUN_${run}}: exited ${rc}")
  endif()
endforeach()
if(NOT out_A STREQUAL out_B)
  message(FATAL_ERROR "stdout differs: [${RUN_A}] vs [${RUN_B}]\n"
                      "--- A ---\n${out_A}--- B ---\n${out_B}")
endif()
