# Runs sdrsim and compares its output byte for byte with a golden file
# committed under tests/golden/. ctest runs it as
#
#   cmake -DSDRSIM=<sdrsim> "-DARGS=<flags>" -DGOLDEN=<golden> -DOUT=<out> \
#         -P tests/sdrsim_golden.cmake
#
# A change that alters a simulated output on purpose regenerates the golden
# in the same commit, so the change shows as a golden diff:
#
#   ./build/tools/sdrsim <flags> > tests/golden/<name>.json
#
# (the flags of each golden are in tests/CMakeLists.txt).
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${SDRSIM}" ${args}
                OUTPUT_FILE "${OUT}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sdrsim ${ARGS} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUT}"
                        "${GOLDEN}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR
          "sdrsim ${ARGS} no longer matches ${GOLDEN}; its output is in "
          "${OUT}. If the change is deliberate, regenerate the golden.")
endif()
