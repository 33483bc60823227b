#===--- PipelineSpellingsAgree.cmake - flag vs. text pipeline check --------===#
#
# Part of the dpopt project, under the MIT License.
#
# dpoptcc's -t/-c/-a knob flags and its -passes= text are two ways to ask
# for the same pipeline; both must emit the same source, byte for byte.
# One pair sets the threshold and coarsening knobs, the other the
# aggregation knobs.
#
#   cmake -DDPOPTCC=path/to/dpoptcc -DINPUT=in.cu -P PipelineSpellingsAgree.cmake
#
#===------------------------------------------------------------------------===#

function(expect_same_output Flags PassText)
  execute_process(
    COMMAND "${DPOPTCC}" ${Flags} "${INPUT}"
    OUTPUT_VARIABLE FromFlags ERROR_VARIABLE FlagsErrors
    RESULT_VARIABLE FlagsExit)
  execute_process(
    COMMAND "${DPOPTCC}" "-passes=${PassText}" "${INPUT}"
    OUTPUT_VARIABLE FromText ERROR_VARIABLE TextErrors
    RESULT_VARIABLE TextExit)

  if(NOT FlagsExit EQUAL 0 OR NOT TextExit EQUAL 0 OR FromFlags STREQUAL "")
    message(FATAL_ERROR "dpoptcc failed:\n${FlagsErrors}${TextErrors}")
  endif()
  if(NOT FromFlags STREQUAL FromText)
    message(FATAL_ERROR "flag and text pipelines emit different sources\n"
                        "--- ${Flags}:\n${FromFlags}\n"
                        "--- -passes=${PassText}:\n${FromText}")
  endif()
endfunction()

expect_same_output("-t;-c;-a;--threshold=256;--factor=8"
                   "threshold[256],coarsen[8],aggregate")
expect_same_output("-t;-c;-a;--granularity=block;--agg-threshold=2"
                   "threshold,coarsen,aggregate[block:agg-threshold=2]")
