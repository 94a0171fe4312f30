# nvmr_crashtest must refuse a malformed count instead of reading it
# as 0 (a "passed: 0 crash points" vacuous pass for --max-backups, a
# silent stride of 1, "all cores" for --jobs): every bad value below
# has to die with fatal (exit 2, kExitUsage) and print nothing on
# stdout. The shared watchdog flags follow the same rule (a typo must
# not silently disable the watchdog; retries must fit an unsigned).
# `--jobs 0` keeps its documented "all cores" meaning and must still
# run. Invoked by the `crashtest-bad-args` ctest:
#
#   cmake -DCRASHTEST=... -P crashtest_bad_args.cmake

if(NOT DEFINED CRASHTEST)
    message(FATAL_ERROR "pass -DCRASHTEST=... (see tests/CMakeLists.txt)")
endif()

# One tiny combination: a single crash point when it runs at all.
set(tiny -w hist -a nvmr --max-backups 1 --stride 1000
    --cycle-samples 0)
foreach(bad
        "--max-backups;abc"
        "--max-backups;-1"
        "--stride;x"
        "--stride;4x"
        "--cycle-samples;+3"
        "--seed;1.5"
        "--snap-stride;abc"
        "--verify-fork;two"
        "--jobs;banana"
        "--jobs;99999999999"
        "--threads;-2"
        "--watchdog-cycles;abc"
        "--watchdog-cycles;12k"
        "--watchdog-retries;x"
        "--watchdog-retries;4294967296")
    execute_process(
        COMMAND "${CRASHTEST}" ${tiny} ${bad}
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    string(REPLACE ";" " " bad "${bad}")
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR
                "nvmr_crashtest ${bad} exited with ${rc}, expected 2:\n"
                "${out}${err}")
    endif()
    if(NOT out STREQUAL "")
        message(FATAL_ERROR "nvmr_crashtest ${bad} printed:\n${out}")
    endif()
    if(NOT err MATCHES "fatal: ")
        message(FATAL_ERROR
                "nvmr_crashtest ${bad} gave no reason:\n${err}")
    endif()
endforeach()

# --no-fork (from-scratch exploration) is gone; --verify-fork keeps
# the from-scratch run as its reference. The flag must be refused
# like any unknown argument, again with nothing on stdout.
execute_process(
    COMMAND "${CRASHTEST}" ${tiny} --no-fork
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 2 OR NOT err MATCHES "unknown argument '--no-fork'")
    message(FATAL_ERROR
            "nvmr_crashtest --no-fork exited with ${rc}, expected 2:\n"
            "${err}")
endif()
if(NOT out STREQUAL "")
    message(FATAL_ERROR "nvmr_crashtest --no-fork printed:\n${out}")
endif()

# Only --help puts the usage text on stdout.
execute_process(
    COMMAND "${CRASHTEST}" --help
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT out MATCHES "nvmr_crashtest: ")
    message(FATAL_ERROR "nvmr_crashtest --help exited with ${rc}:\n${out}")
endif()

execute_process(
    COMMAND "${CRASHTEST}" ${tiny} --jobs 0
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT out MATCHES "crashtest passed: 1 crash points")
    message(FATAL_ERROR
            "nvmr_crashtest --jobs 0 exited with ${rc}:\n${out}${err}")
endif()

message(STATUS "crashtest-bad-args: every malformed count and "
               "--no-fork rejected with exit 2; --jobs 0 still runs")
