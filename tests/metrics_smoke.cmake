# Telemetry acceptance (docs/observability.md): a small journaled
# sweep run with --metrics/--prof-json must exit clean, leave behind a
# valid final nvmr-metrics-v1 snapshot and a Perfetto span trace, and
# nvmr_report must render snapshot + journal + manifest. Invoked by
# the `metrics-smoke` ctest:
#
#   cmake -DSWEEP=... -DREPORT=... -DWORKDIR=... -P metrics_smoke.cmake

foreach(var SWEEP REPORT WORKDIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "pass -D${var}=... (see tests/CMakeLists.txt)")
    endif()
endforeach()
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

set(metrics "${WORKDIR}/sweep.metrics.json")
set(prof "${WORKDIR}/sweep.prof.json")
set(journal "${WORKDIR}/sweep.jrn")
set(manifest "${WORKDIR}/sweep.stats.json")

execute_process(
    COMMAND "${SWEEP}" --workloads hist --traces 2 --jobs 2
            --metrics "${metrics}" --metrics-interval 0.2
            --prof-json "${prof}"
            --journal "${journal}"
            --stats-json "${manifest}"
    OUTPUT_FILE "${WORKDIR}/sweep.csv"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "sweep with --metrics exited with ${rc}")
endif()

# The final snapshot must exist, carry the schema tag, be marked
# final, and contain every top-level section of nvmr-metrics-v1.
if(NOT EXISTS "${metrics}")
    message(FATAL_ERROR "sweep left no metrics snapshot behind")
endif()
file(READ "${metrics}" snapshot)
foreach(needle
        "\"schema\":\"nvmr-metrics-v1\""
        "\"tool\":\"nvmr_sweep\""
        "\"final\":true"
        "\"interrupted\":false"
        "\"cells\""
        "\"rates\""
        "\"eta_seconds\""
        "\"counters\""
        "\"gauges\""
        "\"workers\""
        "\"phases\""
        "\"slowest_cells\""
        "\"journal_appends\"")
    string(FIND "${snapshot}" "${needle}" pos)
    if(pos EQUAL -1)
        message(FATAL_ERROR
                "final snapshot is missing ${needle}:\n${snapshot}")
    endif()
endforeach()

# No torn-write temp file may survive a clean exit.
if(EXISTS "${metrics}.tmp")
    message(FATAL_ERROR "atomic snapshot write left ${metrics}.tmp")
endif()

# The span trace must be a Perfetto duration trace.
file(READ "${prof}" spans)
foreach(needle "\"ph\":\"X\"" "host:nvmr_sweep" "\"traceEvents\"")
    string(FIND "${spans}" "${needle}" pos)
    if(pos EQUAL -1)
        message(FATAL_ERROR "span trace is missing ${needle}")
    endif()
endforeach()

# nvmr_report must validate + render everything (it exits 2 on any
# schema violation, so a zero exit is the real assertion).
execute_process(
    COMMAND "${REPORT}" "${metrics}"
            --journal "${journal}" --manifest "${manifest}"
    OUTPUT_FILE "${WORKDIR}/report.txt"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "nvmr_report exited with ${rc}")
endif()
file(READ "${WORKDIR}/report.txt" report)
foreach(needle
        "campaign: nvmr_sweep"
        "[final]"
        "progress:"
        "occupancy: "
        "engine worker(s) busy on average"
        "phase run"
        "journal ${journal}:"
        "manifest ${manifest}:")
    string(FIND "${report}" "${needle}" pos)
    if(pos EQUAL -1)
        message(FATAL_ERROR
                "report output is missing '${needle}':\n${report}")
    endif()
endforeach()
# Σ busy / elapsed is occupancy, not a speedup.
string(FIND "${report}" "speedup" pos)
if(NOT pos EQUAL -1)
    message(FATAL_ERROR "report calls occupancy a speedup:\n${report}")
endif()

# A truncated snapshot must be rejected with exit 2, never
# half-rendered.
file(READ "${metrics}" snapshot)
string(LENGTH "${snapshot}" len)
math(EXPR half "${len} / 2")
string(SUBSTRING "${snapshot}" 0 ${half} torn)
file(WRITE "${WORKDIR}/torn.json" "${torn}")
execute_process(
    COMMAND "${REPORT}" "${WORKDIR}/torn.json"
    OUTPUT_QUIET ERROR_QUIET
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR
            "nvmr_report accepted a torn snapshot (exit ${rc}, "
            "expected 2)")
endif()

# Usage errors exit 2 with the reason on stderr and nothing on
# stdout; only --help prints the usage text there.
foreach(bad "--bogus" "${metrics};--bogus" "${metrics};${metrics}" "")
    execute_process(
        COMMAND "${REPORT}" ${bad}
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 2 OR NOT out STREQUAL "" OR NOT err MATCHES "fatal: ")
        message(FATAL_ERROR
                "nvmr_report ${bad} exited with ${rc} (expected 2, "
                "empty stdout):\n${out}${err}")
    endif()
endforeach()
execute_process(
    COMMAND "${REPORT}" --help
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0 OR NOT out MATCHES "nvmr_report: ")
    message(FATAL_ERROR "nvmr_report --help exited with ${rc}:\n${out}")
endif()

message(STATUS "metrics smoke: snapshot, span trace and report OK")
