# Golden comparison for the anchor scorecard's deterministic metrics.
#
# Runs bench_anchor_scorecard with pinned knobs (1-second captures, faults
# off) and compares the "sim" metric section of its JSON report
# byte-for-byte against the committed golden file. Sim-kind
# metrics are defined to be bit-identical across thread counts and runs
# (DESIGN.md §7), so any diff here is a real behavior change — wall-kind
# metrics (timings, pool width) are excluded by construction.
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
# The scorecard's exit code counts failed anchors; 1-second captures are too
# short for every anchor band, so the code is informational here — the JSON
# report is what this test gates on.
message(STATUS "scorecard exited ${bench_rc} (informational at 1 s)")

set(report_path "${OUT_DIR}/bench_anchor_scorecard.json")
if(NOT EXISTS "${report_path}")
  message(FATAL_ERROR "scorecard wrote no report at ${report_path}\n"
    "stdout:\n${bench_out}\nstderr:\n${bench_err}")
endif()
file(READ "${report_path}" report)

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
    "scorecard sim metrics diverge from the committed golden.\n"
    "If the change is intentional, regenerate per tests/golden/README.md.\n"
    "---- measured ----\n${sim_json}\n"
    "---- golden ----\n${golden}")
endif()
message(STATUS "scorecard sim metrics match golden (${sim_len} bytes)")
