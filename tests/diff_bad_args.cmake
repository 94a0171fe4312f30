# nvmr_diff and nvmr_train must refuse a malformed number instead of
# reading it as 0 or as a prefix (`--schedules abc` used to run one
# schedule and exit 0): every bad value below has to die with fatal
# (exit 2, kExitUsage) and print nothing on stdout. --schedules is a
# whole number in [1, 2^32 - 1], --seed a whole number, and
# nvmr_train's --cap a finite capacitance above 0 farads. nvmr_sim
# refuses an unknown flag or a missing workload the same way; only
# --help puts its usage text on stdout. Invoked by the
# `diff-bad-args` ctest:
#
#   cmake -DDIFF=... -DTRAIN=... -DSIM=... -DWORKDIR=...
#         -P diff_bad_args.cmake

foreach(var DIFF TRAIN SIM WORKDIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "pass -D${var}=... (see tests/CMakeLists.txt)")
    endif()
endforeach()
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

function(expect_refused tool)
    execute_process(
        COMMAND ${ARGN}
        WORKING_DIRECTORY "${WORKDIR}"
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    string(REPLACE ";" " " cmd "${ARGN}")
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR
                "${tool}: `${cmd}` exited with ${rc}, expected 2:\n"
                "${out}${err}")
    endif()
    if(NOT out STREQUAL "")
        message(FATAL_ERROR "${tool}: `${cmd}` printed:\n${out}")
    endif()
    if(NOT err MATCHES "fatal: ")
        message(FATAL_ERROR "${tool}: `${cmd}` gave no reason:\n${err}")
    endif()
endfunction()

foreach(bad
        "--schedules;abc"
        "--schedules;2x"
        "--schedules;-1"
        "--schedules;0"
        "--schedules;4294967296"
        "--seed;abc"
        "--seed;1.5"
        "--seed;-3")
    expect_refused(nvmr_diff "${DIFF}" --arch ideal ${bad})
endforeach()

foreach(bad abc 0 -0.5 1e999 inf nan 7.5e-3x)
    expect_refused(nvmr_train "${TRAIN}" x.model -a nvmr -w hist
                   --cap ${bad})
endforeach()
if(EXISTS "${WORKDIR}/x.model")
    message(FATAL_ERROR "nvmr_train wrote a model despite a bad --cap")
endif()

expect_refused(nvmr_sim "${SIM}" -w hist --bogus)
expect_refused(nvmr_sim "${SIM}" -a nvmr)
execute_process(
    COMMAND "${SIM}" --help
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT out MATCHES "nvmr_sim: ")
    message(FATAL_ERROR "nvmr_sim --help exited with ${rc}:\n${out}")
endif()

message(STATUS "diff-bad-args: every malformed --schedules, --seed "
               "and --cap, and nvmr_sim's unknown flag and missing "
               "workload, rejected with exit 2")
