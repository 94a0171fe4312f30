# nvmr_fuzz must refuse arguments it cannot honour instead of
# fuzzing nothing and reporting "no divergence": a non-numeric or
# zero iteration count, an unknown flag, a third positional and a
# malformed `--one SEED IDX` each have to die with fatal (exit 2,
# kExitUsage) and print nothing on stdout. The iteration and seed
# bounds are the serve job schema's (serve::checkJob). Invoked by
# the `fuzz-bad-args` ctest:
#
#   cmake -DFUZZ=... -P fuzz_bad_args.cmake

if(NOT DEFINED FUZZ)
    message(FATAL_ERROR "pass -DFUZZ=... (see tests/CMakeLists.txt)")
endif()

foreach(bad
        "abc"
        "0"
        "--oracel;5"
        "5;7;9"
        "--one;1;x"
        "--one;x;1")
    execute_process(
        COMMAND "${FUZZ}" ${bad}
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    string(REPLACE ";" " " bad "${bad}")
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR
                "nvmr_fuzz ${bad} exited with ${rc}, expected 2:\n"
                "${out}${err}")
    endif()
    if(NOT out STREQUAL "")
        message(FATAL_ERROR "nvmr_fuzz ${bad} printed:\n${out}")
    endif()
    if(NOT err MATCHES "fatal: ")
        message(FATAL_ERROR "nvmr_fuzz ${bad} gave no reason:\n${err}")
    endif()
endforeach()

message(STATUS "fuzz-bad-args: every malformed argument list "
               "rejected with exit 2")
