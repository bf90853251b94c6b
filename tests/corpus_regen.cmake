# Regenerate the wire corpus into a build-tree directory and byte-compare
# every file rsafe-corpus writes against its checked-in copy under
# tests/corpus. The log, checkpoint (stream step and standalone image),
# flight-box and forensic encoders are thereby pinned: any change to the
# bytes they emit fails here. Run by ctest as
#
#   cmake -DCORPUS_TOOL=<rsafe-corpus> -DCORPUS_DIR=<tests/corpus>
#         -DOUT_DIR=<scratch dir> -P corpus_regen.cmake

file(REMOVE_RECURSE "${OUT_DIR}")
execute_process(COMMAND "${CORPUS_TOOL}" "${OUT_DIR}"
                RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "rsafe-corpus failed: ${status}")
endif()

file(GLOB_RECURSE written RELATIVE "${OUT_DIR}" "${OUT_DIR}/*")
list(LENGTH written count)
if(count EQUAL 0)
    message(FATAL_ERROR "rsafe-corpus wrote no files under ${OUT_DIR}")
endif()
set(drifted "")
foreach(file ${written})
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            "${OUT_DIR}/${file}" "${CORPUS_DIR}/${file}"
                    RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
        list(APPEND drifted "${file}")
    endif()
endforeach()
if(drifted)
    message(FATAL_ERROR "regenerated corpus differs from tests/corpus "
                        "(or the file is not checked in): ${drifted}")
endif()
message(STATUS "corpus_regen: ${count} regenerated files byte-identical")
