# CTest script: drive qplacer_server over stdin/stdout end to end.
# Invoked as:
#   cmake -DQPLACER_SERVER=<path> -DWORK_DIR=<dir> -P server_smoke.cmake
#
# Feeds a canned qplacer.serve/1 session -- ping, two jobs (the second
# an incremental re-place of the first), shutdown -- and validates the
# response stream: hello first, acks, both results ok, reused_prior on
# the incremental one, bye last, and nothing but JSON on stdout. A
# second session sends one ping with no trailing newline: the end of
# input ends the request, so it must still be answered.

if(NOT QPLACER_SERVER OR NOT WORK_DIR)
    message(FATAL_ERROR "server_smoke.cmake needs -DQPLACER_SERVER and -DWORK_DIR")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(requests "${WORK_DIR}/requests.ndjson")
file(WRITE "${requests}" "\
{\"type\":\"ping\"}
{\"type\":\"submit\",\"id\":\"cold\",\"topology\":\"grid3x3\",\"seed\":3,\"set\":{\"placer.maxIters\":120},\"layout\":true}
{\"type\":\"submit\",\"id\":\"warm\",\"topology\":\"grid3x3\",\"seed\":3,\"set\":{\"placer.maxIters\":120},\"layout\":true,\"base\":\"cold\"}
{\"type\":\"shutdown\"}
")

# One worker keeps the stream strictly ordered: the incremental job
# cannot start before its base finished.
execute_process(
    COMMAND "${QPLACER_SERVER}" --workers 1 --quiet
    INPUT_FILE "${requests}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 240)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "qplacer_server exited ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()

string(REPLACE "\n" ";" lines "${out}")
list(FILTER lines EXCLUDE REGEX "^$")
list(LENGTH lines line_count)
if(line_count LESS 6)
    message(FATAL_ERROR "expected >= 6 response lines, got ${line_count}:\n${out}")
endif()

# Every stdout line is a JSON object; no stray logging.
foreach(line IN LISTS lines)
    if(NOT line MATCHES "^\\{.*\\}$")
        message(FATAL_ERROR "non-JSON line on stdout: ${line}")
    endif()
endforeach()

list(GET lines 0 first)
if(NOT first MATCHES "\"type\":\"hello\"")
    message(FATAL_ERROR "stream does not open with hello: ${first}")
endif()
if(NOT first MATCHES "\"schema\":\"qplacer.serve/1\"")
    message(FATAL_ERROR "hello does not carry the schema id: ${first}")
endif()
list(GET lines -1 last)
if(NOT last MATCHES "\"type\":\"bye\"")
    message(FATAL_ERROR "stream does not close with bye: ${last}")
endif()
if(NOT last MATCHES "\"jobs\":2")
    message(FATAL_ERROR "bye does not report 2 drained jobs: ${last}")
endif()

if(NOT out MATCHES "\"type\":\"pong\"")
    message(FATAL_ERROR "ping was not answered:\n${out}")
endif()

# Both jobs succeeded; the incremental one reused the prior layout.
set(cold_result "")
set(warm_result "")
foreach(line IN LISTS lines)
    if(line MATCHES "\"type\":\"result\"" AND line MATCHES "\"id\":\"cold\"")
        set(cold_result "${line}")
    endif()
    if(line MATCHES "\"type\":\"result\"" AND line MATCHES "\"id\":\"warm\"")
        set(warm_result "${line}")
    endif()
endforeach()
foreach(result IN ITEMS "${cold_result}" "${warm_result}")
    if(NOT result MATCHES "\"code\":\"ok\"")
        message(FATAL_ERROR "job did not finish ok: ${result}\n${out}")
    endif()
    if(NOT result MATCHES "\"layout\":\\[")
        message(FATAL_ERROR "result carries no layout: ${result}")
    endif()
endforeach()
if(NOT warm_result MATCHES "\"reused_prior\":true")
    message(FATAL_ERROR "incremental job did not reuse the prior:\n${warm_result}")
endif()

# Empty delta: the warm layout must equal the cold one bitwise. The
# layout array is the final member of a result line, so a greedy tail
# match captures it whole.
string(REGEX MATCH "\"layout\":\\[.*$" cold_layout "${cold_result}")
string(REGEX MATCH "\"layout\":\\[.*$" warm_layout "${warm_result}")
if(NOT cold_layout STREQUAL warm_layout)
    message(FATAL_ERROR "incremental layout diverged from its base")
endif()

# An unterminated last request is answered, not dropped.
set(unterminated "${WORK_DIR}/unterminated.ndjson")
file(WRITE "${unterminated}" "{\"type\":\"ping\"}")
execute_process(
    COMMAND "${QPLACER_SERVER}" --workers 1 --quiet
    INPUT_FILE "${unterminated}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 60)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "qplacer_server exited ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()
string(REPLACE "\n" ";" lines "${out}")
list(FILTER lines EXCLUDE REGEX "^$")
list(LENGTH lines line_count)
if(NOT line_count EQUAL 2)
    message(FATAL_ERROR "expected hello and pong, got ${line_count} lines:\n${out}")
endif()
list(GET lines 1 second)
if(NOT second MATCHES "\"type\":\"pong\"")
    message(FATAL_ERROR "unterminated ping was not answered:\n${out}")
endif()

message(STATUS "server_smoke: OK")
