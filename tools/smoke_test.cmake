# Drives the ccgraph CLI end to end: simulate two hours (second one with a
# scan), then graph/segment/report on hour data and policy-check the attack
# hour against the clean baseline (which must produce alerts, exit 3).
function(run_cli expect_rc)
  execute_process(COMMAND ${CLI} ${ARGN}
                  WORKING_DIRECTORY ${WORKDIR}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL ${expect_rc})
    message(FATAL_ERROR "ccgraph ${ARGN} -> rc=${rc} (want ${expect_rc})\n${out}\n${err}")
  endif()
endfunction()

run_cli(0 simulate --preset tiny --hours 1 --seed 7 --out clean.csv)
run_cli(0 simulate --preset tiny --hours 1 --seed 7 --attack scan --attack-hour 0 --out attacked.csv)
run_cli(0 graph --in clean.csv)
run_cli(0 segment --in clean.csv)
run_cli(0 report --in clean.csv)
run_cli(3 policy --baseline clean.csv --check attacked.csv)
run_cli(0 policy --baseline clean.csv --check clean.csv)
run_cli(2 simulate --preset nonsense)

run_cli(0 graph --in clean.csv --pgm heat.pgm --save graph.ccg)
if(NOT EXISTS ${WORKDIR}/heat.pgm OR NOT EXISTS ${WORKDIR}/graph.ccg)
  message(FATAL_ERROR "graph artifacts not written")
endif()
run_cli(3 diff --before clean.csv --after attacked.csv)
run_cli(0 diff --before clean.csv --after clean.csv)
run_cli(0 policy --baseline clean.csv --check clean.csv --save policy.txt --min-support 1)
if(NOT EXISTS ${WORKDIR}/policy.txt)
  message(FATAL_ERROR "policy file not written")
endif()

run_cli(0 simulate --preset tiny --hours 5 --seed 9 --out long.csv)
run_cli(0 anomaly --in long.csv --train 3 --rank 8)
run_cli(0 simulate --preset tiny --hours 5 --seed 9 --attack lateral --attack-hour 4 --out long_attacked.csv)
run_cli(3 anomaly --in long_attacked.csv --train 3 --rank 8)

# Like run_cli but hands the exit code back to the caller — for commands
# whose code is data (alert vs no alert) rather than a fixed expectation.
function(run_cli_rc out_var)
  execute_process(COMMAND ${CLI} ${ARGN}
                  WORKING_DIRECTORY ${WORKDIR}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(rc GREATER 3)
    message(FATAL_ERROR "ccgraph ${ARGN} -> rc=${rc}\n${out}\n${err}")
  endif()
  set(${out_var} ${rc} PARENT_SCOPE)
endfunction()

run_cli(0 --version)

# Numeric flags parse the whole token, count flags (--window, --train,
# --rank, --shards, --hours, --threads) must be at least 1, and runtime knob
# flags (--ops-port, ...) must sit inside their table bounds: a bad value
# exits 2 with a message naming the flag instead of running with a
# truncated or wrapped value.
function(expect_flag_error flag)
  execute_process(COMMAND ${CLI} ${ARGN}
                  WORKING_DIRECTORY ${WORKDIR}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "--${flag}")
    message(FATAL_ERROR "ccgraph ${ARGN} -> rc=${rc} (want 2 naming --${flag})\n${out}\n${err}")
  endif()
endfunction()
expect_flag_error(window anomaly --in long.csv --window 60x)
expect_flag_error(train anomaly --in long.csv --train -1)
expect_flag_error(train anomaly --in long.csv --train 0)
expect_flag_error(rank anomaly --in long.csv --rank 0)
expect_flag_error(window trace --in long.csv --window 1.5)
expect_flag_error(shards serve --in long.csv --shards 0)
expect_flag_error(hours simulate --preset tiny --hours 0 --out never.csv)
expect_flag_error(collapse graph --in clean.csv --collapse 0.1.2)
expect_flag_error(window store append --in clean.csv --store never_store --window 2m)
expect_flag_error(threads report --in clean.csv --threads four)
expect_flag_error(ops-port anomaly --in long.csv --ops-port abc)

# Streaming ingest: the log read through a pipe reports exactly what the
# file run does; a header-only log and malformed rows keep their messages.
execute_process(COMMAND ${CLI} anomaly --in long.csv --train 3 --rank 8
                WORKING_DIRECTORY ${WORKDIR}
                RESULT_VARIABLE file_rc OUTPUT_VARIABLE file_out)
execute_process(COMMAND sh -c "cat long.csv | '${CLI}' anomaly --in /dev/stdin --train 3 --rank 8"
                WORKING_DIRECTORY ${WORKDIR}
                RESULT_VARIABLE pipe_rc OUTPUT_VARIABLE pipe_out)
if(NOT file_rc EQUAL pipe_rc OR NOT file_out STREQUAL pipe_out)
  message(FATAL_ERROR "anomaly over a pipe differs from the file run (rc ${pipe_rc} vs ${file_rc})")
endif()
# serve's aggregator is the only process that reads the log, so a pipe
# works there too: the same stdout and exit code as `anomaly` on the file.
execute_process(COMMAND sh -c "cat long.csv | '${CLI}' serve --in /dev/stdin --shards 2 --train 3 --rank 8"
                WORKING_DIRECTORY ${WORKDIR}
                RESULT_VARIABLE serve_rc OUTPUT_VARIABLE serve_out ERROR_VARIABLE err)
if(NOT serve_rc EQUAL file_rc OR NOT serve_out STREQUAL file_out)
  message(FATAL_ERROR "serve over a pipe differs from anomaly on the file (rc ${serve_rc} vs ${file_rc})\n${err}")
endif()
file(STRINGS ${WORKDIR}/clean.csv clean_header LIMIT_COUNT 1)
file(WRITE ${WORKDIR}/header_only.csv "${clean_header}\n")
execute_process(COMMAND ${CLI} anomaly --in header_only.csv
                WORKING_DIRECTORY ${WORKDIR}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "header_only.csv contains no records" OR NOT out STREQUAL "")
  message(FATAL_ERROR "header-only log -> rc=${rc}\n${out}\n${err}")
endif()
# serve on the same log fails on its input: one flight record, labelled
# with the input's error, and none blaming the shards it cut off.
file(REMOVE_RECURSE ${WORKDIR}/feeddir)
file(MAKE_DIRECTORY ${WORKDIR}/feeddir)
execute_process(COMMAND ${CLI} serve --in header_only.csv --shards 2 --flight-dir feeddir
                WORKING_DIRECTORY ${WORKDIR}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
file(GLOB feed_dumps ${WORKDIR}/feeddir/*.json)
list(LENGTH feed_dumps feed_dump_count)
if(NOT rc EQUAL 1 OR NOT err MATCHES "header_only.csv contains no records"
   OR NOT feed_dump_count EQUAL 1)
  message(FATAL_ERROR "serve on a header-only log -> rc=${rc}, ${feed_dump_count} flight records\n${err}")
endif()
list(GET feed_dumps 0 feed_dump)
file(READ ${feed_dump} feed_json)
if(NOT feed_dump MATCHES "ccg-flight-feed-failure-[^/]*\\.json$"
   OR NOT feed_json MATCHES "header_only.csv contains no records")
  message(FATAL_ERROR "feed flight record does not name the input: ${feed_dump}")
endif()
file(READ ${WORKDIR}/clean.csv clean_text)
file(WRITE ${WORKDIR}/with_garbage.csv "${clean_text}not,a,row\n1,2\n")
execute_process(COMMAND ${CLI} graph --in with_garbage.csv
                WORKING_DIRECTORY ${WORKDIR}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT err MATCHES "warning: 2 malformed rows skipped")
  message(FATAL_ERROR "malformed rows -> rc=${rc}\n${err}")
endif()
# A row that goes back to minute 0 after later minutes stops the run at its
# line instead of reopening or skipping a window.
string(REGEX MATCH "\n(0,[^\n]*)\n" first_row "${clean_text}")
file(WRITE ${WORKDIR}/out_of_order.csv "${clean_text}${CMAKE_MATCH_1}\n")
execute_process(COMMAND ${CLI} anomaly --in out_of_order.csv --window 2 --train 2
                WORKING_DIRECTORY ${WORKDIR}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "flow log line [0-9]+: minute 0 follows minute [1-9]")
  message(FATAL_ERROR "out-of-order minute -> rc=${rc}\n${err}")
endif()

# report runs the anomaly pipeline with anomaly's options, so its window
# timeline carries exactly the verdicts `anomaly --window 60` prints. The
# k8s preset has enough nodes (~375) that a different spectral rank moves
# the z-scores.
run_cli(0 simulate --preset k8s --hours 5 --seed 3 --rate-scale 0.05 --out k8s_5h.csv)
run_cli_rc(timeline_rc anomaly --in k8s_5h.csv --window 60 --summary-out timeline_ref.txt)
execute_process(COMMAND ${CLI} report --in k8s_5h.csv
                WORKING_DIRECTORY ${WORKDIR}
                RESULT_VARIABLE rc OUTPUT_VARIABLE report_out ERROR_VARIABLE err)
set(timeline_head "== window timeline ==\n")
string(FIND "${report_out}" "${timeline_head}" timeline_begin)
string(FIND "${report_out}" "\n== metrics ==" timeline_end)
if(NOT rc EQUAL 0 OR timeline_begin LESS 0 OR timeline_end LESS timeline_begin)
  message(FATAL_ERROR "report on k8s_5h.csv -> rc=${rc}, no window timeline\n${err}")
endif()
string(LENGTH "${timeline_head}" timeline_head_len)
math(EXPR timeline_begin "${timeline_begin} + ${timeline_head_len}")
math(EXPR timeline_len "${timeline_end} - ${timeline_begin}")
string(SUBSTRING "${report_out}" ${timeline_begin} ${timeline_len} timeline)
file(READ ${WORKDIR}/timeline_ref.txt timeline_ref)
if(NOT timeline STREQUAL timeline_ref)
  message(FATAL_ERROR "report's window timeline differs from anomaly --window 60:\n${timeline}\nvs\n${timeline_ref}")
endif()

# Store round-trip over 90 two-minute windows: replaying the snapshot store
# must reproduce the direct streaming run line for line (same summaries,
# same exit code), before and after compaction.
file(REMOVE_RECURSE ${WORKDIR}/winstore)
run_cli(0 simulate --preset tiny --hours 3 --seed 11 --out store_flows.csv)
run_cli(0 store append --in store_flows.csv --store winstore --window 2)
run_cli(0 store stats --store winstore)
run_cli(0 store query --store winstore --from 60 --to 120)
run_cli_rc(direct_rc anomaly --in store_flows.csv --window 2 --train 5
           --summary-out direct_summaries.txt)
run_cli_rc(replay_rc store replay --store winstore --train 5
           --summary-out replayed_summaries.txt)
if(NOT direct_rc EQUAL replay_rc)
  message(FATAL_ERROR "replay rc=${replay_rc} differs from direct rc=${direct_rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORKDIR}/direct_summaries.txt ${WORKDIR}/replayed_summaries.txt
                RESULT_VARIABLE summaries_differ)
if(NOT summaries_differ EQUAL 0)
  message(FATAL_ERROR "store replay summaries differ from the direct run")
endif()

# Every subcommand honors the global --metrics-out/--metrics-prom flags —
# including the store family, whose export regressing silently would leave
# production runs blind.
function(check_metrics_files tag)
  foreach(suffix json prom)
    if(NOT EXISTS ${WORKDIR}/m_${tag}.${suffix})
      message(FATAL_ERROR "${tag}: metrics file m_${tag}.${suffix} not written")
    endif()
    file(SIZE ${WORKDIR}/m_${tag}.${suffix} metrics_size)
    if(metrics_size EQUAL 0)
      message(FATAL_ERROR "${tag}: metrics file m_${tag}.${suffix} is empty")
    endif()
  endforeach()
endfunction()

run_cli(0 graph --in clean.csv --metrics-out m_graph.json --metrics-prom m_graph.prom)
check_metrics_files(graph)
run_cli(0 segment --in clean.csv --metrics-out m_segment.json --metrics-prom m_segment.prom)
check_metrics_files(segment)
run_cli(0 report --in clean.csv --metrics-out m_report.json --metrics-prom m_report.prom)
check_metrics_files(report)
run_cli(0 anomaly --in long.csv --train 3 --rank 8 --metrics-out m_anomaly.json --metrics-prom m_anomaly.prom)
check_metrics_files(anomaly)
run_cli(0 store stats --store winstore --metrics-out m_stats.json --metrics-prom m_stats.prom)
check_metrics_files(stats)
run_cli(0 store query --store winstore --metrics-out m_query.json --metrics-prom m_query.prom)
check_metrics_files(query)
run_cli_rc(ignored_rc store replay --store winstore --train 5
           --summary-out replay_metrics_summaries.txt
           --metrics-out m_replay.json --metrics-prom m_replay.prom)
check_metrics_files(replay)

# The trace subcommand forces tracing on, prints span trees, and --trace-out
# writes Chrome trace-event JSON any command could also produce.
run_cli(0 trace --in long.csv --window 30 --train 2 --trace-out trace.json)
if(NOT EXISTS ${WORKDIR}/trace.json)
  message(FATAL_ERROR "trace subcommand did not write trace.json")
endif()
file(READ ${WORKDIR}/trace.json trace_json)
if(NOT trace_json MATCHES "traceEvents")
  message(FATAL_ERROR "trace.json is not trace-event JSON")
endif()
if(NOT trace_json MATCHES "ccg.analytics.window")
  message(FATAL_ERROR "trace.json is missing the window root spans")
endif()

# A stalled window (injected) must trip the watchdog into writing a flight
# record that names the stall.
file(REMOVE_RECURSE ${WORKDIR}/flightdir)
file(MAKE_DIRECTORY ${WORKDIR}/flightdir)
run_cli(0 trace --in long.csv --window 60 --train 2 --stall-ms 400
          --watchdog-ms 100 --flight-dir flightdir)
file(GLOB stall_dumps ${WORKDIR}/flightdir/ccg-flight-stall-*.json)
if(stall_dumps STREQUAL "")
  message(FATAL_ERROR "stalled window produced no flight record")
endif()
list(GET stall_dumps 0 stall_dump)
file(READ ${stall_dump} stall_json)
if(NOT stall_json MATCHES "window stalled past watchdog deadline")
  message(FATAL_ERROR "flight record is missing the stall log line")
endif()
if(stall_json MATCHES "\"span_count\": 0,")
  message(FATAL_ERROR "flight record captured no spans")
endif()

run_cli(0 store compact --store winstore --keyframe 4)
run_cli_rc(replay2_rc store replay --store winstore --train 5
           --summary-out replayed_after_compact.txt)
if(NOT replay2_rc EQUAL direct_rc)
  message(FATAL_ERROR "post-compact replay rc=${replay2_rc} differs from ${direct_rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORKDIR}/direct_summaries.txt ${WORKDIR}/replayed_after_compact.txt
                RESULT_VARIABLE compacted_differ)
if(NOT compacted_differ EQUAL 0)
  message(FATAL_ERROR "summaries changed after compaction")
endif()
