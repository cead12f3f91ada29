# CTest script: run qplacer_cli end to end and validate its artifacts.
# Invoked as:
#   cmake -DQPLACER_CLI=<path> -DWORK_DIR=<dir> -P cli_smoke.cmake

if(NOT QPLACER_CLI OR NOT WORK_DIR)
    message(FATAL_ERROR "cli_smoke.cmake needs -DQPLACER_CLI and -DWORK_DIR")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(csv "${WORK_DIR}/smoke.csv")
set(svg "${WORK_DIR}/smoke.svg")

execute_process(
    COMMAND "${QPLACER_CLI}" --topology grid3x3 --mode qplacer --seed 3
            --csv "${csv}" --svg "${svg}" --quiet
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "qplacer_cli exited ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()

# --- CSV: header + exactly one data row, with the key metric columns. ---
if(NOT EXISTS "${csv}")
    message(FATAL_ERROR "qplacer_cli did not write ${csv}")
endif()
file(STRINGS "${csv}" csv_lines)
list(LENGTH csv_lines csv_count)
if(NOT csv_count EQUAL 2)
    message(FATAL_ERROR "expected 2 CSV lines (header + row), got ${csv_count}")
endif()
list(GET csv_lines 0 csv_header)
foreach(column topology mode qubits cells ph_percent utilization seconds)
    string(FIND "${csv_header}" "${column}" found)
    if(found EQUAL -1)
        message(FATAL_ERROR "CSV header missing '${column}': ${csv_header}")
    endif()
endforeach()
list(GET csv_lines 1 csv_row)
if(NOT csv_row MATCHES "^Grid9,Qplacer,9,")
    message(FATAL_ERROR "unexpected CSV data row: ${csv_row}")
endif()

# --- SVG: well-formed document envelope. ---
if(NOT EXISTS "${svg}")
    message(FATAL_ERROR "qplacer_cli did not write ${svg}")
endif()
file(READ "${svg}" svg_text)
if(NOT svg_text MATCHES "^<svg ")
    message(FATAL_ERROR "SVG does not start with an <svg> element")
endif()
if(NOT svg_text MATCHES "</svg>")
    message(FATAL_ERROR "SVG is not closed with </svg>")
endif()

# --- Threaded runs: --threads must work and never change the layout. ---
# grid8x8 (~1400 instances, 64 bins) sits above every serial-grain
# cutoff, so worker threads genuinely run; a capped iteration budget
# keeps the smoke fast while still exercising hundreds of regions. The
# runs at 2 (twice) and 3 threads must write the --threads 1 file.
foreach(run IN ITEMS 1 2a 2b 3)
    string(SUBSTRING "${run}" 0 1 threads)
    set(layout "${WORK_DIR}/threads_${run}.txt")
    execute_process(
        COMMAND "${QPLACER_CLI}" --topology grid8x8 --seed 3
                --threads ${threads} --set placer.maxIters=120
                --layout "${layout}" --quiet
        RESULT_VARIABLE rc
        OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "qplacer_cli --threads ${threads} exited ${rc}\n${err}")
    endif()
    file(READ "${layout}" text)
    if(run STREQUAL "1")
        set(text_serial "${text}")
    elseif(NOT text STREQUAL text_serial)
        message(FATAL_ERROR
            "--threads ${threads} layout (run ${run}) differs from --threads 1")
    endif()
endforeach()

# --- Seed wraparound: --jobs near UINT64_MAX wraps mod 2^64. ---
# Base seed 2^64 - 2 with 3 jobs must resolve to the deterministic
# sequence {2^64 - 2, 2^64 - 1, 0} -- full-precision in the CSV seed
# column (strings, not doubles) and every job ok.
set(wrap_csv "${WORK_DIR}/wrap.csv")
execute_process(
    COMMAND "${QPLACER_CLI}" --topology grid3x3
            --seed 18446744073709551614 --jobs 3 --workers 1
            --set placer.maxIters=60 --csv "${wrap_csv}" --quiet
    RESULT_VARIABLE rc
    OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "qplacer_cli wraparound batch exited ${rc}\n${err}")
endif()
file(STRINGS "${wrap_csv}" wrap_lines)
list(LENGTH wrap_lines wrap_count)
if(NOT wrap_count EQUAL 4)
    message(FATAL_ERROR "expected 4 CSV lines (header + 3 rows), got ${wrap_count}")
endif()
foreach(seed 18446744073709551614 18446744073709551615 0)
    set(seen FALSE)
    foreach(row IN LISTS wrap_lines)
        if(row MATCHES ",${seed},ok$")
            set(seen TRUE)
        endif()
    endforeach()
    if(NOT seen)
        message(FATAL_ERROR "no ok row with wrapped seed ${seed} in:\n${wrap_lines}")
    endif()
endforeach()

# --- Portfolio: --portfolio picks a winner and rejects --jobs > 1. ---
set(folio_csv "${WORK_DIR}/folio.csv")
execute_process(
    COMMAND "${QPLACER_CLI}" --topology grid3x3 --seed 1 --portfolio 3
            --set placer.maxIters=80 --csv "${folio_csv}" --quiet
    RESULT_VARIABLE rc
    OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "qplacer_cli --portfolio 3 exited ${rc}\n${err}")
endif()
file(STRINGS "${folio_csv}" folio_lines)
list(LENGTH folio_lines folio_count)
if(NOT folio_count EQUAL 2)
    message(FATAL_ERROR "portfolio run must emit one CSV row, got ${folio_count}")
endif()
list(GET folio_lines 1 folio_row)
if(NOT folio_row MATCHES ",ok$")
    message(FATAL_ERROR "portfolio run did not finish ok: ${folio_row}")
endif()
execute_process(
    COMMAND "${QPLACER_CLI}" --topology grid3x3 --portfolio 2 --jobs 2
            --quiet
    RESULT_VARIABLE bad_rc
    OUTPUT_QUIET ERROR_QUIET)
if(bad_rc EQUAL 0)
    message(FATAL_ERROR "qplacer_cli accepted --portfolio with --jobs > 1")
endif()
# --set portfolio.seeds alone runs the portfolio (--portfolio N is
# shorthand for it) and counts for the --jobs conflict too.
execute_process(
    COMMAND "${QPLACER_CLI}" --topology grid3x3 --seed 1 --threads 1
            --set portfolio.seeds=3 --set placer.maxIters=80
            --report json --quiet
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE set_folio_json ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "qplacer_cli --set portfolio.seeds=3 exited ${rc}\n${err}")
endif()
string(FIND "${set_folio_json}" "\"portfolio\":{\"seeds\":3," found)
if(found EQUAL -1)
    message(FATAL_ERROR "--set portfolio.seeds=3 ran no 3-seed portfolio:\n${set_folio_json}")
endif()
# The report's aggregate carries the CLI's own peak RSS (VmHWM, kB).
string(JSON peak_rss_kb ERROR_VARIABLE json_err
       GET "${set_folio_json}" aggregate peak_rss_kb)
if(json_err OR NOT peak_rss_kb MATCHES "^[1-9][0-9]*$")
    message(FATAL_ERROR "no positive aggregate.peak_rss_kb (${json_err}):\n${set_folio_json}")
endif()
execute_process(
    COMMAND "${QPLACER_CLI}" --topology grid3x3 --set portfolio.seeds=2
            --jobs 2 --quiet
    RESULT_VARIABLE bad_rc
    OUTPUT_QUIET ERROR_QUIET)
if(bad_rc EQUAL 0)
    message(FATAL_ERROR "qplacer_cli accepted portfolio.seeds=2 with --jobs > 1")
endif()
# Human mode has no seed to race: a portfolio there is a parameter
# error up front, not a silent single-seed run.
execute_process(
    COMMAND "${QPLACER_CLI}" --topology Falcon --mode human --portfolio 3
            --report json
    RESULT_VARIABLE bad_rc
    OUTPUT_QUIET ERROR_VARIABLE err)
if(bad_rc EQUAL 0)
    message(FATAL_ERROR "qplacer_cli accepted --portfolio in human mode")
endif()
if(NOT err MATCHES "qplacer_cli: fatal: .*portfolio.seeds")
    message(FATAL_ERROR "human-mode portfolio error does not name portfolio.seeds:\n${err}")
endif()

# --- --help: the --set key list is printed from kKnownSetKeys. ---
execute_process(
    COMMAND "${QPLACER_CLI}" --help
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE help_text
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "qplacer_cli --help exited ${rc}\n${err}")
endif()
string(FIND "${help_text}" "portfolio.seeds" found)
if(found EQUAL -1)
    message(FATAL_ERROR "--help does not list portfolio.seeds:\n${help_text}")
endif()

# --- Error path: retired --set keys are unknown. ---
foreach(key assigner.referenceEngine builder.reference builder.serialBelow
            legalizer.referenceProbes multidie.cutWeight detailed.enabled
            detailed.tempDecay legalizer.cellUm placer.targetDensity
            placer.freqCutoffFactor incremental.snapToleranceUm)
    execute_process(
        COMMAND "${QPLACER_CLI}" --topology grid3x3 --set "${key}=1" --quiet
        RESULT_VARIABLE bad_rc
        OUTPUT_QUIET ERROR_VARIABLE err)
    if(bad_rc EQUAL 0 OR NOT err MATCHES "unknown --set key")
        message(FATAL_ERROR "qplacer_cli accepted retired key ${key}: ${err}")
    endif()
endforeach()

# --- Error path: a --set value outside int is rejected, not truncated. ---
execute_process(
    COMMAND "${QPLACER_CLI}" --topology grid3x3
            --set placer.maxIters=4294967297 --quiet
    RESULT_VARIABLE bad_rc
    OUTPUT_QUIET ERROR_VARIABLE err)
if(bad_rc EQUAL 0 OR NOT err MATCHES "placer.maxIters")
    message(FATAL_ERROR "qplacer_cli accepted placer.maxIters=2^32+1: ${err}")
endif()

# --- One crosstalk rule: hotspot.adjacencyTolUm reaches the legalizer. ---
# At the default 50 um the Falcon layout leaves 68 resonant pairs within
# 150 um; with the rule widened, the tau-checked legalizer must guard
# them too, so the layout changes and far fewer pairs remain.
set(rule_layouts "")
foreach(tol 50 150)
    set(rule_layout "${WORK_DIR}/falcon_adj${tol}.txt")
    execute_process(
        COMMAND "${QPLACER_CLI}" --topology Falcon --seed 1 --threads 1
                --set hotspot.adjacencyTolUm=${tol} --layout "${rule_layout}"
                --report json --quiet
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE rule_json ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "qplacer_cli Falcon adjacencyTolUm=${tol} exited ${rc}\n${err}")
    endif()
    list(APPEND rule_layouts "${rule_layout}")
endforeach()
if(NOT rule_json MATCHES "\"hotspots\":{\"ph_percent\":[^,]*,\"pairs\":([0-9]+)")
    message(FATAL_ERROR "no hotspot pair count in:\n${rule_json}")
endif()
if(NOT CMAKE_MATCH_1 LESS 68)
    message(FATAL_ERROR "adjacencyTolUm=150 left ${CMAKE_MATCH_1} hotspot pairs (>= 68)")
endif()
if(NOT rule_json MATCHES "\"legal\":{\"legal\":true")
    message(FATAL_ERROR "adjacencyTolUm=150 layout is not legal:\n${rule_json}")
endif()
list(GET rule_layouts 0 rule_a)
list(GET rule_layouts 1 rule_b)
file(READ "${rule_a}" text_a)
file(READ "${rule_b}" text_b)
if(text_a STREQUAL text_b)
    message(FATAL_ERROR "hotspot.adjacencyTolUm=150 did not change the layout")
endif()

# --- Error path: unknown topology must fail cleanly. ---
execute_process(
    COMMAND "${QPLACER_CLI}" --topology no-such-device --quiet
    RESULT_VARIABLE bad_rc
    OUTPUT_QUIET ERROR_QUIET)
if(bad_rc EQUAL 0)
    message(FATAL_ERROR "qplacer_cli accepted an unknown topology")
endif()

# --- Error path: a spec dimension past kMaxSpecDim (256,
# topology/factory.hpp) is a bad spec, rejected before any generator
# runs. ---
execute_process(
    COMMAND "${QPLACER_CLI}" --topology grid1x257 --quiet
            --set placer.maxIters=1
    RESULT_VARIABLE big_rc
    OUTPUT_QUIET
    ERROR_VARIABLE big_err)
if(NOT big_rc EQUAL 1)
    message(FATAL_ERROR "qplacer_cli exited ${big_rc} on an oversized spec:\n${big_err}")
endif()
if(NOT big_err MATCHES "qplacer_cli: fatal: bad topology spec 'grid1x257'")
    message(FATAL_ERROR "oversized spec gave no bad-spec message:\n${big_err}")
endif()

message(STATUS "cli_smoke: OK")
