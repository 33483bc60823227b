#===--- ExpectDiagnostic.cmake - dpoptcc refusal check ----------------------===#
#
# Part of the dpopt project, under the MIT License.
#
# dpoptcc, given the flags FLAGS (a list) and the input INPUT, must exit
# with status 1 and print EXPECT on stderr. A signal is a failure.
#
#   cmake -DDPOPTCC=path/to/dpoptcc -DINPUT=launch_arity.cu
#         "-DFLAGS=-t;-c;-a" "-DEXPECT=kernel 'child' expects"
#         -P ExpectDiagnostic.cmake
#
#===------------------------------------------------------------------------===#

execute_process(
  COMMAND "${DPOPTCC}" ${FLAGS} "${INPUT}"
  OUTPUT_VARIABLE Out ERROR_VARIABLE Errors
  RESULT_VARIABLE Exit)

if(NOT Exit STREQUAL "1")
  message(FATAL_ERROR "dpoptcc exited with '${Exit}', expected 1\n${Errors}")
endif()
string(FIND "${Errors}" "${EXPECT}" Found)
if(Found EQUAL -1)
  message(FATAL_ERROR "missing diagnostic '${EXPECT}' on stderr:\n${Errors}")
endif()
