# Determinism-contract check for the parallel engine
# (docs/performance.md): every campaign driver must produce
# byte-identical stdout and stats JSON whatever the worker count.
# Invoked by the `par-determinism` ctest with the tool paths:
#
#   cmake -DSWEEP=... -DFUZZ=... -DDIFF=... -DCRASHTEST=... \
#         -DWORKDIR=... -P par_determinism.cmake

foreach(var SWEEP FUZZ DIFF CRASHTEST WORKDIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "pass -D${var}=... (see tests/CMakeLists.txt)")
    endif()
endforeach()
file(MAKE_DIRECTORY "${WORKDIR}")

function(run_case label exe)
    # --metrics rides along on every run: host telemetry must never
    # perturb the deterministic outputs (the snapshots themselves are
    # wall-clock data and are deliberately not compared).
    foreach(jobs 1 8)
        execute_process(
            COMMAND "${exe}" ${ARGN} --jobs ${jobs}
                    --stats-json "${WORKDIR}/${label}_j${jobs}.json"
                    --metrics "${WORKDIR}/${label}_j${jobs}.metrics"
            OUTPUT_FILE "${WORKDIR}/${label}_j${jobs}.out"
            RESULT_VARIABLE rc)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR
                    "${label} --jobs ${jobs} exited with ${rc}")
        endif()
    endforeach()
    foreach(ext out json)
        execute_process(
            COMMAND ${CMAKE_COMMAND} -E compare_files
                    "${WORKDIR}/${label}_j1.${ext}"
                    "${WORKDIR}/${label}_j8.${ext}"
            RESULT_VARIABLE rc)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR
                    "${label}: --jobs 1 vs --jobs 8 .${ext} differs "
                    "(determinism contract violated)")
        endif()
    endforeach()
    message(STATUS "${label}: byte-identical across worker counts")
endfunction()

run_case(sweep "${SWEEP}" --workloads hist --traces 2)
run_case(fuzz "${FUZZ}" --oracle 6)
run_case(diff "${DIFF}" --smoke)
# Both crashtest stages span every combination, so cells of different
# combinations interleave across workers; the report must not notice.
run_case(crashtest "${CRASHTEST}" --smoke -v)
