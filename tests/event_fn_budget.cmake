# ctest `event_fn_budget_enforced`:
#
#   cmake -DCXX=<compiler> -DSRC=<repo>/src -DFIXTURE=<fixture.cc>
#         -P <this file>
#
# sim::EventFn stores every callable inline, and a capture over its
# budget must fail the build rather than allocate per event. The
# fixture schedules a lambda capturing a 96-byte array; compiled with
# -fsyntax-only it must fail, and every error line must be
# EventFn::emplace's static_assert. A clean compile, or an error of
# any other kind, fails the test. The same fixture at 48 bytes must
# compile, so the fixture itself is known good.

cmake_minimum_required(VERSION 3.16)

set(expected "EventFn holds callables inline only")
set(compile ${CMAKE_COMMAND} -E env LC_ALL=C
            ${CXX} -std=c++20 -fsyntax-only -I${SRC} ${FIXTURE})

execute_process(COMMAND ${compile} -DCAPTURE_BYTES=48
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "the 48-byte capture does not compile:\n${out}")
endif()

execute_process(COMMAND ${compile}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(rc EQUAL 0)
    message(FATAL_ERROR "the 96-byte capture compiled: EventFn no "
                        "longer enforces its inline budget")
endif()
# Semicolons would split the list of error lines below.
string(REPLACE ";" "," flat "${out}")
string(REGEX MATCHALL "[^\n]*error:[^\n]*" errors "${flat}")
if(NOT errors)
    message(FATAL_ERROR "the compile failed with no error line:\n${out}")
endif()
foreach(line IN LISTS errors)
    string(FIND "${line}" "${expected}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "the compile failed for another reason "
                            "than EventFn's static_assert:\n${out}")
    endif()
endforeach()
