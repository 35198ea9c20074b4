# ctest `paper_suite_shared_vs_solo`:
#
#   cmake -DSUITE=<paper_suite> -DOUT=<scratch dir> -P <this file>
#
# Runs the whole suite at --quick in one process, where fig11 and
# fig14 take every TPC-C run from the memo, then each of them alone,
# where they execute those runs themselves. The artifacts must be
# byte-identical: a memo that hands a figure a run made under another
# configuration fails here.

cmake_minimum_required(VERSION 3.16)

function(run_suite dir)
    file(MAKE_DIRECTORY "${OUT}/${dir}")
    execute_process(COMMAND "${SUITE}" --quick --json "${OUT}/${dir}"
                            ${ARGN}
                    OUTPUT_QUIET RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "paper_suite --quick ${ARGN} exited ${rc}")
    endif()
endfunction()

file(REMOVE_RECURSE "${OUT}")
run_suite(shared)
foreach(item fig11 fig14)
    run_suite(solo_${item} ${item})
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                "${OUT}/shared/BENCH_${item}.json"
                "${OUT}/solo_${item}/BENCH_${item}.json"
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${item} from the whole suite differs from "
                            "${item} run alone (${OUT})")
    endif()
endforeach()
