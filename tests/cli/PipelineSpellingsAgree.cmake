#===--- PipelineSpellingsAgree.cmake - flag vs. text pipeline check --------===#
#
# Part of the dpopt project, under the MIT License.
#
# dpoptcc's -t/-c/-a knob flags and its -passes= text are two ways to ask
# for the same pipeline; both must emit the same source, byte for byte.
#
#   cmake -DDPOPTCC=path/to/dpoptcc -DINPUT=in.cu -P PipelineSpellingsAgree.cmake
#
#===------------------------------------------------------------------------===#

execute_process(
  COMMAND "${DPOPTCC}" -t -c -a --threshold=256 --factor=8 "${INPUT}"
  OUTPUT_VARIABLE FromFlags ERROR_VARIABLE FlagsErrors
  RESULT_VARIABLE FlagsExit)
execute_process(
  COMMAND "${DPOPTCC}" "-passes=threshold[256],coarsen[8],aggregate" "${INPUT}"
  OUTPUT_VARIABLE FromText ERROR_VARIABLE TextErrors
  RESULT_VARIABLE TextExit)

if(NOT FlagsExit EQUAL 0 OR NOT TextExit EQUAL 0 OR FromFlags STREQUAL "")
  message(FATAL_ERROR "dpoptcc failed:\n${FlagsErrors}${TextErrors}")
endif()
if(NOT FromFlags STREQUAL FromText)
  message(FATAL_ERROR "flag and text pipelines emit different sources\n"
                      "--- -t -c -a:\n${FromFlags}\n--- -passes=:\n${FromText}")
endif()
