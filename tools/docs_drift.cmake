# Docs-drift guard, run by ctest as `docs_drift_guard`:
#
#   cmake -DREPO_ROOT=<repo> -P tools/docs_drift.cmake
#
# Every bench binary (bench/*.cc) and every item paper_suite registers
# must be named in EXPERIMENTS.md as a backticked `name` (an item may
# also appear as `paper_suite name`), so an experiment can't be added
# or renamed without its documentation moving with it. A bare word
# does not count: "calibrated" does not document `calibrate`.
#
# Every repository path backticked in README.md, DESIGN.md or
# EXPERIMENTS.md (a word starting src/, tests/, bench/, tools/,
# examples/ or perfbench/) must name an existing file or directory,
# so deleting or moving a file fails here until the docs follow. A
# binary name passes when its source exists (`bench/paper_suite`
# names bench/paper_suite.cc). Placeholders and globs (<...>, *,
# {...}) are skipped, as is everything inside fenced code blocks.

cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED REPO_ROOT)
    message(FATAL_ERROR "docs_drift: pass -DREPO_ROOT=<repo root>")
endif()

set(_experiments "${REPO_ROOT}/EXPERIMENTS.md")
if(NOT EXISTS "${_experiments}")
    message(FATAL_ERROR "docs_drift: ${_experiments} is missing")
endif()
file(READ "${_experiments}" _doc)

file(GLOB _benches "${REPO_ROOT}/bench/*.cc")
set(_names "")
foreach(_src IN LISTS _benches)
    get_filename_component(_name "${_src}" NAME_WE)
    list(APPEND _names "${_name}")
endforeach()

# paper_suite's items: the names in its kItems table.
file(READ "${REPO_ROOT}/bench/paper_suite.cc" _suite)
string(FIND "${_suite}" "kItems[] = {" _begin)
if(_begin EQUAL -1)
    message(FATAL_ERROR "docs_drift: no kItems table in paper_suite.cc")
endif()
string(SUBSTRING "${_suite}" ${_begin} -1 _suite)
string(FIND "${_suite}" "};" _end)
string(SUBSTRING "${_suite}" 0 ${_end} _suite)
string(REGEX MATCHALL "{\"[a-z0-9_]+\"," _entries "${_suite}")
if(NOT _entries)
    message(FATAL_ERROR "docs_drift: paper_suite registers no items")
endif()
list(LENGTH _entries _item_count)
foreach(_entry IN LISTS _entries)
    string(REGEX REPLACE "^{\"([a-z0-9_]+)\",$" "\\1" _name "${_entry}")
    list(APPEND _names "${_name}")
endforeach()

set(_missing "")
foreach(_name IN LISTS _names)
    if(NOT _doc MATCHES "`(paper_suite )?${_name}`")
        list(APPEND _missing "${_name}")
    endif()
endforeach()

if(_missing)
    list(JOIN _missing ", " _missing_list)
    message(FATAL_ERROR
        "docs_drift: not documented in EXPERIMENTS.md as a backticked "
        "name: ${_missing_list}. Add an entry for each (name, "
        "figure/claim it reproduces, how to run it).")
endif()

set(_path_count 0)
set(_stale "")
foreach(_md IN ITEMS README.md DESIGN.md EXPERIMENTS.md)
    file(READ "${REPO_ROOT}/${_md}" _text)
    string(REGEX REPLACE "```[^`]*```" "" _text "${_text}")
    string(REGEX MATCHALL "`[^`]+`" _spans "${_text}")
    foreach(_span IN LISTS _spans)
        string(REGEX MATCHALL
            "[ `\t\n](src|tests|bench|tools|examples|perfbench)/[^ `\t\n]*"
            _paths "${_span}")
        foreach(_path IN LISTS _paths)
            string(SUBSTRING "${_path}" 1 -1 _path)
            if(_path MATCHES "[<>*{}]")
                continue()
            endif()
            math(EXPR _path_count "${_path_count} + 1")
            set(_found FALSE)
            foreach(_suffix IN ITEMS "" .cc .cpp .hh)
                if(EXISTS "${REPO_ROOT}/${_path}${_suffix}")
                    set(_found TRUE)
                endif()
            endforeach()
            if(NOT _found)
                list(APPEND _stale "${_md}: ${_path}")
            endif()
        endforeach()
    endforeach()
endforeach()

if(_stale)
    list(JOIN _stale ", " _stale_list)
    message(FATAL_ERROR
        "docs_drift: backticked paths that name no file or directory: "
        "${_stale_list}. Fix the path or drop the reference.")
endif()

list(LENGTH _benches _bench_count)
message(STATUS
    "docs_drift: ${_bench_count} bench sources and ${_item_count} "
    "paper_suite items documented in EXPERIMENTS.md; ${_path_count} "
    "backticked repository paths resolve")
