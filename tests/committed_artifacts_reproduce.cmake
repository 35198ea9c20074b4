# ctest `committed_artifacts_reproduce`:
#
#   cmake -DSUITE=<paper_suite> -DREPO_ROOT=<repo> -DOUT=<scratch dir>
#         -P <this file>
#
# Runs the paper_suite items whose full-scale artifacts are committed
# at the repository root (BENCH_<item>.json) and byte-compares each
# fresh artifact with the committed one. A change that moves a
# simulated number in these items fails here until the committed
# artifact is regenerated in the same change. The run also fails on
# any failed check.

cmake_minimum_required(VERSION 3.16)

set(items fig03 abl_integrity abl_overload abl_cluster)

file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")
execute_process(COMMAND "${SUITE}" --json "${OUT}" ${items}
                OUTPUT_QUIET RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "paper_suite ${items} exited ${rc}")
endif()
foreach(item IN LISTS items)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                "${REPO_ROOT}/BENCH_${item}.json"
                "${OUT}/BENCH_${item}.json"
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "BENCH_${item}.json differs from the "
                            "committed artifact (${OUT})")
    endif()
endforeach()
