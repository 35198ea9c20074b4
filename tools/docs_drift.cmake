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
# Every repository path backticked in README.md, DESIGN.md,
# EXPERIMENTS.md or the verify skill's SKILL.md (the build-and-run
# recipe; see _docs below) (a word starting src/, tests/, bench/,
# tools/, examples/ or perfbench/) must name an existing file or
# directory, so deleting or moving a file fails here until the docs
# follow. A binary name passes when its source exists
# (`bench/paper_suite` names bench/paper_suite.cc). Placeholders and
# globs (<...>, *, {...}) are skipped, as is everything inside fenced
# code blocks. ROADMAP.md is not checked: its done items name deleted
# code on purpose.
#
# Every backticked span in those docs shaped like a C++ name must
# name words that occur in the sources (src/, bench/, tests/,
# tools/, examples/, perfbench/), so deleting or renaming a class or
# function fails here too. Three shapes count, the whole span being
# one of: a qualified name (`storage::BlockPath`, also with a
# trailing `()`), a CamelCase name (`BlockPath`) and a call
# (`connect()`). Every identifier in such a span must occur in the
# sources as a whole word. Fenced code blocks are skipped here too.

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

set(_docs README.md DESIGN.md EXPERIMENTS.md
    .claude/skills/verify/SKILL.md)
set(_path_count 0)
set(_stale "")
foreach(_md IN LISTS _docs)
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

# Every identifier of the sources, once.
set(_ident "[A-Za-z_][A-Za-z0-9_]*")
set(_words "")
foreach(_dir IN ITEMS src bench tests tools examples perfbench)
    file(GLOB_RECURSE _sources
        "${REPO_ROOT}/${_dir}/*.cc" "${REPO_ROOT}/${_dir}/*.hh"
        "${REPO_ROOT}/${_dir}/*.cpp" "${REPO_ROOT}/${_dir}/*.py"
        "${REPO_ROOT}/${_dir}/*.cmake"
        "${REPO_ROOT}/${_dir}/CMakeLists.txt")
    foreach(_src IN LISTS _sources)
        file(READ "${_src}" _code)
        string(REGEX MATCHALL "${_ident}" _ids "${_code}")
        list(APPEND _words ${_ids})
    endforeach()
    list(REMOVE_DUPLICATES _words)
endforeach()

set(_name_shapes
    "^${_ident}(::~?${_ident})+(\\(\\))?$" # qualified name
    "^[A-Z][a-z0-9]+[A-Z][A-Za-z0-9]*$"    # CamelCase name
    "^${_ident}\\(\\)$")                   # call
set(_name_count 0)
foreach(_md IN LISTS _docs)
    file(READ "${REPO_ROOT}/${_md}" _text)
    string(REGEX REPLACE "```[^`]*```" "" _text "${_text}")
    string(REGEX MATCHALL "`[^`]+`" _spans "${_text}")
    foreach(_span IN LISTS _spans)
        string(REGEX REPLACE "^`(.*)`$" "\\1" _span "${_span}")
        set(_is_name FALSE)
        foreach(_shape IN LISTS _name_shapes)
            if(_span MATCHES "${_shape}")
                set(_is_name TRUE)
            endif()
        endforeach()
        if(NOT _is_name)
            continue()
        endif()
        math(EXPR _name_count "${_name_count} + 1")
        string(REGEX MATCHALL "${_ident}" _ids "${_span}")
        foreach(_id IN LISTS _ids)
            list(FIND _words "${_id}" _at)
            if(_at EQUAL -1)
                list(APPEND _stale "${_md}: ${_span}")
                break()
            endif()
        endforeach()
    endforeach()
endforeach()

if(_stale)
    list(JOIN _stale ", " _stale_list)
    message(FATAL_ERROR
        "docs_drift: backticked C++ names that occur nowhere in the "
        "sources: ${_stale_list}. Fix the name or drop the reference.")
endif()

list(LENGTH _benches _bench_count)
message(STATUS
    "docs_drift: ${_bench_count} bench sources and ${_item_count} "
    "paper_suite items documented in EXPERIMENTS.md; ${_path_count} "
    "backticked repository paths resolve; ${_name_count} backticked "
    "C++ names occur in the sources")
