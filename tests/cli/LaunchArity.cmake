#===--- LaunchArity.cmake - launch-arity diagnostic check ------------------===#
#
# Part of the dpopt project, under the MIT License.
#
# A launch whose argument count differs from the child's parameter count
# must make dpoptcc exit with status 1 and name the mismatch, under its
# default pipeline (-t -c -a). A signal is a failure.
#
#   cmake -DDPOPTCC=path/to/dpoptcc -DINPUT=launch_arity.cu -P LaunchArity.cmake
#
#===------------------------------------------------------------------------===#

execute_process(
  COMMAND "${DPOPTCC}" "${INPUT}"
  OUTPUT_VARIABLE Out ERROR_VARIABLE Errors
  RESULT_VARIABLE Exit)

if(NOT Exit STREQUAL "1")
  message(FATAL_ERROR "dpoptcc exited with '${Exit}', expected 1\n${Errors}")
endif()
string(FIND "${Errors}" "kernel 'child' expects 2 arguments, got 3" Found)
if(Found EQUAL -1)
  message(FATAL_ERROR "missing arity diagnostic on stderr:\n${Errors}")
endif()
