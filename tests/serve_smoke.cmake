# Service acceptance (docs/operations.md "Running nvmr_serve"):
#
#  Phase A -- a healthy spool (one sweep job, one fuzz job) drains
#  with --once and exit 0, leaves complete per-job outputs and a
#  final nvmr-serve-v1 snapshot behind, and nvmr_report renders the
#  snapshot (exit 2 on any schema violation, so exit 0 is the real
#  assertion). The service and the CLI tools run one shared sweep
#  and fuzz campaign implementation (serve/runner.cc), so each job
#  output must also be byte-identical to the stdout of the CLI tool
#  run on the same job: nvmr_sweep for sweep1.csv, nvmr_fuzz for
#  fuzz1.out.
#
#  Phase B -- a degraded spool (a poison `spin` job with a wall-clock
#  deadline, an unparseable job file, and the same healthy sweep job)
#  must exit 3 with the poison job quarantined after backoff retries,
#  the bad file marked failed, and the healthy job's CSV
#  byte-identical to Phase A's.
#
# Invoked by the `serve-smoke` ctest:
#
#   cmake -DSERVE=... -DREPORT=... -DSWEEP=... -DFUZZ=... -DWORKDIR=...
#         -P serve_smoke.cmake

foreach(var SERVE REPORT SWEEP FUZZ WORKDIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "pass -D${var}=... (see tests/CMakeLists.txt)")
    endif()
endforeach()
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}/spool_a" "${WORKDIR}/spool_b")

set(sweep_job "{
  \"schema\": \"nvmr-job-v1\",
  \"type\": \"sweep\",
  \"workloads\": [\"hist\"],
  \"archs\": [\"clank\", \"nvmr\"],
  \"policies\": [\"jit\"],
  \"traces\": 2
}")

# ----------------------------- Phase A -----------------------------

file(WRITE "${WORKDIR}/spool_a/sweep1.job" "${sweep_job}")
file(WRITE "${WORKDIR}/spool_a/fuzz1.job" "{
  \"schema\": \"nvmr-job-v1\",
  \"type\": \"fuzz\",
  \"iterations\": 10,
  \"base_seed\": 3,
  \"faults\": true
}")

execute_process(
    COMMAND "${SERVE}" --spool "${WORKDIR}/spool_a" --once --jobs 2
    OUTPUT_FILE "${WORKDIR}/serve_a.log"
    ERROR_FILE "${WORKDIR}/serve_a.log"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    file(READ "${WORKDIR}/serve_a.log" log)
    message(FATAL_ERROR "healthy drain exited with ${rc}:\n${log}")
endif()

set(state_a "${WORKDIR}/spool_a/.nvmr_serve")
foreach(artifact
        "${state_a}/out/sweep1.csv"
        "${state_a}/out/sweep1.stats.json"
        "${state_a}/out/fuzz1.out"
        "${state_a}/out/fuzz1.stats.json"
        "${state_a}/serve.jrn"
        "${state_a}/serve.json")
    if(NOT EXISTS "${artifact}")
        message(FATAL_ERROR "drain left no ${artifact} behind")
    endif()
endforeach()

# Atomic writers must not leak temp files past a clean exit.
file(GLOB stray "${state_a}/*.tmp" "${state_a}/out/*.tmp")
if(stray)
    message(FATAL_ERROR "atomic writes left temp files: ${stray}")
endif()

# Serve and CLI must produce the same bytes for the same job.
execute_process(
    COMMAND "${SWEEP}" --workloads hist --archs clank,nvmr
            --policies jit --traces 2
    OUTPUT_FILE "${WORKDIR}/cli_sweep1.csv"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "nvmr_sweep for the sweep job exited with ${rc}")
endif()
execute_process(
    COMMAND "${FUZZ}" --faults 10 3
    OUTPUT_FILE "${WORKDIR}/cli_fuzz1.out"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "nvmr_fuzz for the fuzz job exited with ${rc}")
endif()
foreach(pair "sweep1.csv;cli_sweep1.csv" "fuzz1.out;cli_fuzz1.out")
    list(GET pair 0 served)
    list(GET pair 1 cli)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                "${state_a}/out/${served}" "${WORKDIR}/${cli}"
        RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
        message(FATAL_ERROR
                "served ${served} differs from the CLI tool's stdout "
                "(${WORKDIR}/${cli})")
    endif()
endforeach()

file(READ "${state_a}/out/fuzz1.out" fuzz_log)
string(FIND "${fuzz_log}" "no divergence" pos)
if(pos EQUAL -1)
    message(FATAL_ERROR "fuzz job log looks wrong:\n${fuzz_log}")
endif()

# The final service snapshot must carry the schema and clean totals.
file(READ "${state_a}/serve.json" snapshot)
foreach(needle
        "\"schema\":\"nvmr-serve-v1\""
        "\"tool\":\"nvmr_serve\""
        "\"final\":true"
        "\"admitted\":2"
        "\"done\":2"
        "\"failed\":0"
        "\"quarantined\":0")
    string(FIND "${snapshot}" "${needle}" pos)
    if(pos EQUAL -1)
        message(FATAL_ERROR
                "service snapshot is missing ${needle}:\n${snapshot}")
    endif()
endforeach()

# nvmr_report must recognize the serve schema and render it.
execute_process(
    COMMAND "${REPORT}" "${state_a}/serve.json"
    OUTPUT_FILE "${WORKDIR}/report_a.txt"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "nvmr_report exited with ${rc} on serve.json")
endif()
file(READ "${WORKDIR}/report_a.txt" report)
foreach(needle
        "service:  nvmr_serve"
        "[final]"
        "queue:"
        "admitted"
        "service drained clean")
    string(FIND "${report}" "${needle}" pos)
    if(pos EQUAL -1)
        message(FATAL_ERROR
                "serve report is missing '${needle}':\n${report}")
    endif()
endforeach()

# ----------------------------- Phase B -----------------------------

# The spin workload never halts and the watchdog budget is huge, so
# only the wall-clock deadline can end an attempt: retry (doubled
# budget, exponential backoff), then quarantine.
file(WRITE "${WORKDIR}/spool_b/poison.job" "{
  \"schema\": \"nvmr-job-v1\",
  \"type\": \"sweep\",
  \"workloads\": [\"spin\"],
  \"archs\": [\"nvmr\"],
  \"policies\": [\"jit\"],
  \"traces\": 1,
  \"deadline_ms\": 300,
  \"retries\": 2,
  \"watchdog_cycles\": 1000000000000
}")
file(WRITE "${WORKDIR}/spool_b/broken.job" "{ \"schema\": 42")
file(WRITE "${WORKDIR}/spool_b/healthy.job" "${sweep_job}")

execute_process(
    COMMAND "${SERVE}" --spool "${WORKDIR}/spool_b" --once --jobs 2
            --retry-base-ms 20
    OUTPUT_FILE "${WORKDIR}/serve_b.log"
    ERROR_FILE "${WORKDIR}/serve_b.log"
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 3)
    file(READ "${WORKDIR}/serve_b.log" log)
    message(FATAL_ERROR
            "degraded drain exited with ${rc}, expected 3:\n${log}")
endif()

set(state_b "${WORKDIR}/spool_b/.nvmr_serve")

# The healthy job must be untouched by its poisoned neighbours:
# byte-identical to the same job served from the healthy spool.
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${state_a}/out/sweep1.csv" "${state_b}/out/healthy.csv"
    RESULT_VARIABLE same)
if(NOT same EQUAL 0)
    message(FATAL_ERROR
            "healthy job CSV differs between clean and degraded "
            "spools")
endif()

file(READ "${state_b}/serve.json" snapshot)
foreach(needle
        "\"final\":true"
        "\"quarantined\":1"
        "\"failed\":1"
        "\"done\":1")
    string(FIND "${snapshot}" "${needle}" pos)
    if(pos EQUAL -1)
        message(FATAL_ERROR
                "degraded snapshot is missing ${needle}:\n${snapshot}")
    endif()
endforeach()

file(READ "${WORKDIR}/serve_b.log" log)
foreach(needle "retrying with doubled budget" "quarantined job poison"
        "bad job file")
    string(FIND "${log}" "${needle}" pos)
    if(pos EQUAL -1)
        message(FATAL_ERROR
                "service log is missing '${needle}':\n${log}")
    endif()
endforeach()

message(STATUS "serve smoke: drain, report, quarantine and degraded "
               "modes OK")
