# Journal compatibility for the sweep and fuzz campaigns: each
# fixture under data/ is a journal written by an earlier build of the
# tool, with the command line below plus `--journal FILE`:
#
#   nvmr_sweep_hist.jrn   nvmr_sweep --workloads hist
#                         --archs clank,nvmr --policies jit
#                         --caps 0.1,0.0075 --traces 1
#                         --watchdog-cycles 1000000000
#   nvmr_fuzz_faults.jrn  nvmr_fuzz --faults 20 3
#                         --watchdog-cycles 1000000000
#
# Resuming it with the same command line must be accepted (the
# config spec, and so its hash, is unchanged), must serve every cell
# from the journal (nothing re-runs, so nothing is appended and the
# journal stays byte-identical), and must print exactly what a fresh
# run prints. Invoked by the `journal-compat` ctest:
#
#   cmake -DSWEEP=... -DFUZZ=... -DDATA=... -DWORKDIR=...
#         -P journal_compat.cmake

foreach(var SWEEP FUZZ DATA WORKDIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "pass -D${var}=... (see tests/CMakeLists.txt)")
    endif()
endforeach()
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

function(check_resume name tool)
    set(args ${ARGN})
    file(COPY "${DATA}/${name}.jrn" DESTINATION "${WORKDIR}")
    execute_process(
        COMMAND "${tool}" ${args} --resume "${WORKDIR}/${name}.jrn"
        OUTPUT_FILE "${WORKDIR}/${name}.resumed"
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "resuming ${name}.jrn exited with ${rc}:\n${err}")
    endif()
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                "${DATA}/${name}.jrn" "${WORKDIR}/${name}.jrn"
        RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
        message(FATAL_ERROR
                "resuming ${name}.jrn re-ran cells (journal grew)")
    endif()
    execute_process(
        COMMAND "${tool}" ${args}
        OUTPUT_FILE "${WORKDIR}/${name}.fresh"
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "fresh run for ${name} exited with ${rc}")
    endif()
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                "${WORKDIR}/${name}.resumed" "${WORKDIR}/${name}.fresh"
        RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
        message(FATAL_ERROR "resumed ${name} output differs from a "
                            "fresh run (${WORKDIR})")
    endif()
endfunction()

check_resume(nvmr_sweep_hist "${SWEEP}"
             --workloads hist --archs clank,nvmr --policies jit
             --caps 0.1,0.0075 --traces 1
             --watchdog-cycles 1000000000)
check_resume(nvmr_fuzz_faults "${FUZZ}"
             --faults 20 3 --watchdog-cycles 1000000000)

message(STATUS "journal-compat: sweep and fuzz journals resume "
               "every cell, byte-identical to fresh runs")
