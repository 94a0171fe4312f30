# The forked smoke sweep with --verify-fork 5 on the reference
# interpreter: every forked point it cross-checks must match its
# from-scratch re-run (exit 0), and it must cross-check at least one.
# A census that kept no usable snapshot would leave --verify-fork
# nothing to verify and pass vacuously; the manifest's
# combos[].fork_verified counts catch that. Invoked by the
# `crashtest-smoke-forked` ctest:
#
#   cmake -DCRASHTEST=... -DWORKDIR=... -P crashtest_forked.cmake

foreach(var CRASHTEST WORKDIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "pass -D${var}=... (see tests/CMakeLists.txt)")
    endif()
endforeach()
file(MAKE_DIRECTORY "${WORKDIR}")

set(manifest "${WORKDIR}/forked.json")
file(REMOVE "${manifest}")
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env NVMR_ENGINE=interp
            "${CRASHTEST}" --smoke --verify-fork 5
            --stats-json "${manifest}"
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc)
message("${out}")
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "nvmr_crashtest --verify-fork exited with ${rc}")
endif()

file(READ "${manifest}" json)
string(JSON ncombos LENGTH "${json}" extra combos)
if(ncombos EQUAL 0)
    message(FATAL_ERROR "manifest lists no combinations")
endif()
set(verified 0)
math(EXPR last "${ncombos} - 1")
foreach(i RANGE ${last})
    string(JSON v GET "${json}" extra combos ${i} fork_verified)
    math(EXPR verified "${verified} + ${v}")
endforeach()
if(verified EQUAL 0)
    message(FATAL_ERROR
            "--verify-fork cross-checked no forked point: the census "
            "kept no snapshot any point could fork from")
endif()
message(STATUS "crashtest-smoke-forked: ${verified} forked points "
               "byte-identical to their from-scratch runs")
