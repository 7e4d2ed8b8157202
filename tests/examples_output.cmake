# Runs each example and compares its stdout byte for byte with
# ${DATA_DIR}/<example>.stdout; an example with a ${DATA_DIR}/<example>.in
# reads it on stdin. Every mismatch is reported before the script fails.
#
#   cmake -D BIN_DIR=<examples dir> -D DATA_DIR=<expected outputs>
#         -D OUT_DIR=<scratch dir> -D EXAMPLES=a,b -P examples_output.cmake
file(MAKE_DIRECTORY "${OUT_DIR}")
string(REPLACE "," ";" examples "${EXAMPLES}")
set(failed "")
foreach(example IN LISTS examples)
  set(input "")
  if(EXISTS "${DATA_DIR}/${example}.in")
    set(input INPUT_FILE "${DATA_DIR}/${example}.in")
  endif()
  execute_process(COMMAND "${BIN_DIR}/${example}" ${input}
                  OUTPUT_FILE "${OUT_DIR}/${example}.stdout"
                  ERROR_QUIET
                  RESULT_VARIABLE status)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${OUT_DIR}/${example}.stdout"
                          "${DATA_DIR}/${example}.stdout"
                  RESULT_VARIABLE differs)
  if(NOT status EQUAL 0)
    message("${example}: exited with ${status}")
    list(APPEND failed ${example})
  elseif(NOT differs EQUAL 0)
    message("${example}: stdout ${OUT_DIR}/${example}.stdout differs from "
            "${DATA_DIR}/${example}.stdout")
    list(APPEND failed ${example})
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "example output changed: ${failed}")
endif()
