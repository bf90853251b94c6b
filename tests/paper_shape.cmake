# Rerun the nine binaries that reproduce the paper's evaluation and
# byte-compare each one's stdout with its recorded table under
# tests/paper. Their figures are simulated cycles and counts, exact for
# a given source tree, so any difference is a change to the cost model
# or to a verdict. Every binary runs at its default scale
# (RSAFE_BENCH_SCALE unset). Run by ctest as
#
#   cmake -DBENCH_DIR=<build>/bench -DPAPER_DIR=<tests/paper>
#         -DOUT_DIR=<scratch dir> -P paper_shape.cmake
#
# With -DRECORD=ON the fresh tables are copied into PAPER_DIR instead of
# compared (tools/check.sh paper): only a deliberate cost-model change
# re-records them.

set(binaries
    bench_fig5_recording
    bench_fig6_log_rate
    bench_fig7_chk_replay
    bench_fig8_false_alarms
    bench_fig9_alarm_replay
    bench_sec84_response_window
    bench_table1_detectors
    bench_ablation_checkpoint
    bench_ablation_ras)

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

set(drifted "")
foreach(binary ${binaries})
    set(table "${OUT_DIR}/${binary}.txt")
    execute_process(COMMAND ${CMAKE_COMMAND} -E env
                            --unset=RSAFE_BENCH_SCALE
                            "${BENCH_DIR}/${binary}"
                    WORKING_DIRECTORY "${OUT_DIR}"
                    OUTPUT_FILE "${table}"
                    RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR "${binary} failed: ${status}")
    endif()
    if(RECORD)
        file(COPY "${table}" DESTINATION "${PAPER_DIR}")
        continue()
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            "${table}" "${PAPER_DIR}/${binary}.txt"
                    RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
        list(APPEND drifted "${binary}")
    endif()
endforeach()

if(RECORD)
    message(STATUS "paper_shape: recorded ${PAPER_DIR}")
elseif(drifted)
    message(FATAL_ERROR "paper tables differ from tests/paper (diff "
                        "${OUT_DIR}/<binary>.txt against the recorded "
                        "copy): ${drifted}")
else()
    message(STATUS "paper_shape: all tables byte-identical")
endif()
