# Guard against orphaned benchmark records: every BENCH_<name>.json at
# the repo root must come from a harness bench/CMakeLists.txt still
# builds (nvmr_bench(<name>) or nvmr_bench(bench_<name>)), and its
# "bench" field must name that same harness (with or without the
# bench_ prefix). A record whose harness was deleted or renamed would
# otherwise sit in the tree as a number nothing can regenerate.
# Invoked by the `bench-records` ctest:
#
#   cmake -DROOT=<repo root> -P bench_records.cmake

cmake_minimum_required(VERSION 3.16) # IN_LIST

if(NOT DEFINED ROOT)
    message(FATAL_ERROR "pass -DROOT=... (see tests/CMakeLists.txt)")
endif()

file(READ "${ROOT}/bench/CMakeLists.txt" lists)
string(REGEX MATCHALL "nvmr_bench\\([A-Za-z0-9_]+\\)" calls "${lists}")
set(harnesses "")
foreach(call ${calls})
    string(REGEX REPLACE "nvmr_bench\\(([A-Za-z0-9_]+)\\)" "\\1" h
                         "${call}")
    list(APPEND harnesses "${h}")
endforeach()

file(GLOB records RELATIVE "${ROOT}" "${ROOT}/BENCH_*.json")
if(NOT records)
    message(FATAL_ERROR "no BENCH_*.json records under ${ROOT}")
endif()
foreach(record ${records})
    string(REGEX REPLACE "^BENCH_(.*)\\.json$" "\\1" name "${record}")
    if("${name}" IN_LIST harnesses)
        set(harness "${name}")
    elseif("bench_${name}" IN_LIST harnesses)
        set(harness "bench_${name}")
    else()
        message(FATAL_ERROR
                "${record}: no nvmr_bench(${name}) or "
                "nvmr_bench(bench_${name}) in bench/CMakeLists.txt")
    endif()

    file(READ "${ROOT}/${record}" body)
    if(NOT body MATCHES "\"bench\"[ \t\r\n]*:[ \t\r\n]*\"([^\"]*)\"")
        message(FATAL_ERROR "${record}: no \"bench\" field")
    endif()
    set(field "${CMAKE_MATCH_1}")
    if(NOT field STREQUAL harness AND
       NOT "bench_${field}" STREQUAL harness)
        message(FATAL_ERROR
                "${record}: \"bench\" is \"${field}\", but the record "
                "belongs to harness ${harness}")
    endif()
endforeach()

list(LENGTH records n)
message(STATUS "bench-records: ${n} record(s), each owned by a built "
               "harness")
