# nvmr_sweep must refuse a grid it cannot run instead of printing
# rows built from zero runs: every bad --traces / --caps value below
# has to die with fatal (exit 2, kExitUsage) and print no CSV. The
# rules are the serve job schema's (serve::checkJob): traces is a
# whole number in [1, 10], caps are finite positive numbers, archs
# and policies are non-empty. A malformed
# watchdog budget dies the same way instead of silently disabling the
# watchdog (retries must also fit an unsigned). Invoked by the
# `sweep-bad-args` ctest:
#
#   cmake -DSWEEP=... -P sweep_bad_args.cmake

if(NOT DEFINED SWEEP)
    message(FATAL_ERROR "pass -DSWEEP=... (see tests/CMakeLists.txt)")
endif()

set(grid --workloads hist --archs nvmr --policies jit)
foreach(bad
        "--traces;0"
        "--traces;11"
        "--traces;abc"
        "--traces;2x"
        "--caps;0"
        "--caps;-0.1"
        "--caps;abc"
        "--caps;,"
        "--caps;1e999"
        "--archs;,"
        "--policies;,"
        "--watchdog-cycles;abc"
        "--watchdog-cycles;-5"
        "--watchdog-retries;x"
        "--watchdog-retries;4294967296")
    execute_process(
        COMMAND "${SWEEP}" ${grid} ${bad}
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    string(REPLACE ";" " " bad "${bad}")
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR
                "nvmr_sweep ${bad} exited with ${rc}, expected 2:\n"
                "${out}${err}")
    endif()
    if(NOT out STREQUAL "")
        message(FATAL_ERROR "nvmr_sweep ${bad} printed CSV:\n${out}")
    endif()
    if(NOT err MATCHES "fatal: ")
        message(FATAL_ERROR "nvmr_sweep ${bad} gave no reason:\n${err}")
    endif()
endforeach()

message(STATUS "sweep-bad-args: every empty or malformed grid "
               "rejected with exit 2")
