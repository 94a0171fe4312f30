# Kill/resume contract for nvmr_crashtest (docs/operations.md):
#
# 1. nvmr_killer SIGKILLs a journaled crashtest campaign at randomized
#    points (plus one torn journal tail), resumes it each time, and
#    the final stdout and manifest must be byte-identical to an
#    uninterrupted run, at --jobs 1 and --jobs 4. --verify-fork makes
#    every resume re-derive the snapshots of the combinations whose
#    census came back from the journal.
# 2. A journal of the earlier per-combination stage layout
#    (data/crashtest_per_combo.jrn, written by that layout's
#    `nvmr_crashtest -w hist -a nvmr --max-backups 1 --stride 20
#    --cycle-samples 1 --journal FILE`) must be refused with exit 2,
#    not silently re-run under the new stage keys.
#
# Invoked by the `crashtest-resume` ctest:
#
#   cmake -DKILLER=... -DCRASHTEST=... -DFIXTURE=... -DWORKDIR=... \
#         -P crashtest_resume.cmake

foreach(var KILLER CRASHTEST FIXTURE WORKDIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "pass -D${var}=... (see tests/CMakeLists.txt)")
    endif()
endforeach()
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

execute_process(
    COMMAND ${CMAKE_COMMAND} -E env NVMR_KILLER_DIR=${WORKDIR}
            "${KILLER}" --seed 1 --
            "${CRASHTEST}" --smoke -v --verify-fork 2
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
message("${out}")
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "nvmr_killer exited with ${rc}:\n${err}")
endif()

# The fixture is copied: a refused resume must not touch the journal,
# and a wrongly accepted one would rewrite it.
file(COPY "${FIXTURE}" DESTINATION "${WORKDIR}")
get_filename_component(name "${FIXTURE}" NAME)
execute_process(
    COMMAND "${CRASHTEST}" -w hist -a nvmr --max-backups 1 --stride 20
            --cycle-samples 1 --resume "${WORKDIR}/${name}"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR
            "resuming a per-combination journal exited with ${rc}, "
            "expected 2:\n${out}${err}")
endif()
if(NOT err MATCHES "fatal: cannot resume")
    message(FATAL_ERROR "per-combination journal refused without "
                        "a reason:\n${err}")
endif()
if(NOT out STREQUAL "")
    message(FATAL_ERROR "refused resume printed:\n${out}")
endif()
message(STATUS "crashtest-resume: kill/resume byte-identical; "
               "per-combination journal refused with exit 2")
