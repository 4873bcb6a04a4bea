# Golden comparison for the paper run's deterministic metrics.
#
# Runs bench_paper with pinned knobs (1-second captures, faults off) and
# compares the "sim" metric section of its JSON report byte-for-byte
# against the committed golden file. Sim-kind metrics are defined to be
# bit-identical across thread counts and runs (DESIGN.md §7), so any diff
# here is a real behavior change — wall-kind metrics (timings, pool width)
# are excluded by construction.
#
# It also checks that every figure in the run's table printed its heading
# exactly once: the report's "figures" extra lists the headings.
#
# Invoked by the golden_scorecard_sim_metrics ctest; expects -DBENCH,
# -DGOLDEN, and -DOUT_DIR.

file(MAKE_DIRECTORY "${OUT_DIR}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env
    FBDCSIM_BENCH_SECONDS=1
    FBDCSIM_FAULTS=off
    --unset=FBDCSIM_THREADS
    "FBDCSIM_BENCH_OUT=${OUT_DIR}/"
    "${BENCH}"
  RESULT_VARIABLE bench_rc
  OUTPUT_VARIABLE bench_out
  ERROR_VARIABLE bench_err)
# The paper run's exit code counts failed anchors; 1-second captures are
# too short for every anchor band, so the code is informational here — the
# JSON report and the printed headings are what this test gates on.
message(STATUS "bench_paper exited ${bench_rc} (informational at 1 s)")

set(report_path "${OUT_DIR}/bench_paper.json")
if(NOT EXISTS "${report_path}")
  message(FATAL_ERROR "bench_paper wrote no report at ${report_path}\n"
    "stdout:\n${bench_out}\nstderr:\n${bench_err}")
endif()
file(READ "${report_path}" report)

# Every table entry prints its heading once: a figure that is skipped or
# run twice shows up here. Headings hold no quote, ';' or '|'.
string(REGEX MATCH "\"figures\":\"([^\"]*)\"" figures_json "${report}")
if(NOT CMAKE_MATCH_1)
  message(FATAL_ERROR "report has no \"figures\" extra:\n${report}")
endif()
string(REPLACE "|" ";" headings "${CMAKE_MATCH_1}")
list(LENGTH headings n_headings)
string(LENGTH "${bench_out}" out_len)
foreach(heading IN LISTS headings)
  string(REPLACE "=== ${heading} ===" "" stripped "${bench_out}")
  string(LENGTH "${stripped}" stripped_len)
  string(LENGTH "=== ${heading} ===" heading_len)
  math(EXPR count "(${out_len} - ${stripped_len}) / ${heading_len}")
  if(NOT count EQUAL 1)
    message(FATAL_ERROR "heading '${heading}' printed ${count} times, expected once")
  endif()
endforeach()
message(STATUS "all ${n_headings} figure headings printed once")

string(FIND "${report}" "\"sim\":" sim_start)
string(FIND "${report}" ",\"wall\":" wall_start)
if(sim_start EQUAL -1 OR wall_start EQUAL -1)
  message(FATAL_ERROR "report JSON has no sim/wall metric sections:\n${report}")
endif()
math(EXPR sim_len "${wall_start} - ${sim_start}")
string(SUBSTRING "${report}" ${sim_start} ${sim_len} sim_json)

if(sim_json STREQUAL "\"sim\":{\"counters\":{},\"gauges\":{},\"histograms\":{}}")
  # FBDCSIM_TELEMETRY=OFF builds compile the instrumentation out entirely;
  # there is nothing to compare, and failing would make that configuration
  # untestable.
  message(STATUS "telemetry compiled out; skipping golden comparison")
  return()
endif()

file(READ "${GOLDEN}" golden)
string(STRIP "${golden}" golden)
if(NOT sim_json STREQUAL golden)
  message(FATAL_ERROR
    "bench_paper sim metrics diverge from the committed golden.\n"
    "If the change is intentional, regenerate per tests/golden/README.md.\n"
    "---- measured ----\n${sim_json}\n"
    "---- golden ----\n${golden}")
endif()
message(STATUS "bench_paper sim metrics match golden (${sim_len} bytes)")
