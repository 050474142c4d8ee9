# Byte-compares ddpsim sweep output between --jobs 1 and --jobs 8.
#
# Usage:
#   cmake -DDDPSIM=<path>
#         -DMODE=<sweep|torture|torture_instant|torture_staged|trace|gray|
#                 offered|open_loop|shard>
#         [-DWORKDIR=<dir>] -P jobs_deterministic.cmake
#
# Parallel sweeps must be byte-identical to serial execution (DESIGN.md,
# "Parallel sweeps stay deterministic"): every run owns its EventQueue
# and RNG streams, and SweepRunner collects results in index order. CSV
# carries no host-timing fields, so the comparison is exact. MODE=trace
# additionally byte-compares the merged --trace-out timeline, whose
# per-run fragments are serialized on the workers and concatenated in
# model order.

if(NOT DEFINED DDPSIM OR NOT DEFINED MODE)
    message(FATAL_ERROR
        "need -DDDPSIM=<path> and -DMODE=<sweep|torture|trace>")
endif()
if(NOT DEFINED WORKDIR)
    set(WORKDIR ${CMAKE_CURRENT_BINARY_DIR})
endif()

set(common_args
    --servers 2 --clients-per-server 2 --keys 500
    --warmup-us 50 --measure-us 150 --format csv)
if(MODE STREQUAL "sweep")
    set(args --all-models ${common_args})
elseif(MODE STREQUAL "torture")
    set(args --all-models --torture 2 ${common_args})
elseif(MODE STREQUAL "torture_instant")
    # Staged instant-recovery torture: on-demand fault-in, background
    # backfill and the re-join path must all stay deterministic under
    # parallel sweep execution.
    set(args --all-models --torture 2 --recovery instant
        --crash-nodes 1 --restart-after-us 100 ${common_args})
elseif(MODE STREQUAL "torture_staged")
    # Staged eager torture: a partial crash with downtime, then the
    # bulk state transfer and convergence audit at re-join, under the
    # default recovery policy.
    set(args --all-models --torture 2
        --crash-nodes 1 --restart-after-us 100 ${common_args})
elseif(MODE STREQUAL "trace")
    set(args --all-models ${common_args})
elseif(MODE STREQUAL "gray")
    # Gray-node mitigation sweep: hedged reads + shedding against one
    # fail-slow node. The adaptive estimator, hedge arbitration and
    # CoDel shed decisions must all stay deterministic under parallel
    # sweep execution.
    set(args --all-models --gray-sweep --slow-factor 5
        ${common_args})
elseif(MODE STREQUAL "offered")
    # Open-loop offered-load ramp: per-tenant arrival streams are a
    # pure function of (spec, seed, stream), so the saturation sweep —
    # including the overloaded points where queues shed — must stay
    # byte-identical under parallel execution.
    set(args --all-models --offered-sweep 2e6:2e7:2 ${common_args})
elseif(MODE STREQUAL "open_loop")
    # Open-loop all-model sweep at a fixed rate with a bursty arrival
    # process, YCSB-E scans through an ordered backend, and connection
    # churn — the concurrent-slot client engine end to end.
    set(args --all-models --open-loop --arrival bursty
        --arrival-rate 4e6 --churn-us 60 --workload e
        --store skiplist ${common_args})
elseif(MODE STREQUAL "shard")
    # Sharded rebalancing sweep at paper scale: 25 servers carved into
    # 5 shard teams under the zipfian hot head, with the distributor
    # armed so the sweep executes hot-range splits on every model and
    # migrations (metadata flip + flow-controlled backfill over the
    # fault-in path) on most. JSON output carries the shard_* fields;
    # the two host-timing fields are masked before the byte-compare.
    set(args --all-models --servers 25 --shards 5
        --clients-per-server 2 --keys 2500
        --split-threshold 1200 --shard-max-ops 300
        --warmup-us 100 --measure-us 1600 --format json)
else()
    message(FATAL_ERROR "unknown MODE '${MODE}'")
endif()

foreach(jobs 1 8)
    set(run_args ${args})
    if(MODE STREQUAL "trace")
        list(APPEND run_args
             --trace-out ${WORKDIR}/trace_jobs${jobs}.json)
    endif()
    execute_process(
        COMMAND ${DDPSIM} ${run_args} --jobs ${jobs}
        OUTPUT_VARIABLE out_${jobs}
        ERROR_VARIABLE err_${jobs}
        RESULT_VARIABLE rc_${jobs})
    if(NOT rc_${jobs} EQUAL 0)
        message(FATAL_ERROR
            "ddpsim --jobs ${jobs} failed (rc=${rc_${jobs}}):\n${err_${jobs}}")
    endif()
endforeach()

if(MODE STREQUAL "shard")
    # JSON output: mask the nondeterministic host-timing fields (one
    # per line by design) so the byte-compare is exact.
    foreach(jobs 1 8)
        string(REGEX REPLACE
               "\"(wall_seconds|setup_seconds|events_per_sec)\": [^,\n}]*"
               "\"\\1\": X" out_${jobs} "${out_${jobs}}")
    endforeach()
endif()

if(NOT out_1 STREQUAL out_8)
    message(FATAL_ERROR
        "MODE=${MODE}: --jobs 8 stdout differs from --jobs 1 — parallel "
        "sweep broke determinism")
endif()

if(MODE STREQUAL "shard")
    # The sweep must actually rebalance, or the gate pins nothing.
    if(NOT out_1 MATCHES "\"shard_splits\": [1-9]")
        message(FATAL_ERROR
            "MODE=shard: no model executed a hot-range split")
    endif()
    if(NOT out_1 MATCHES "\"shard_migrations\": [1-9]")
        message(FATAL_ERROR
            "MODE=shard: no model executed a range migration")
    endif()
endif()

if(MODE STREQUAL "trace")
    foreach(jobs 1 8)
        file(READ ${WORKDIR}/trace_jobs${jobs}.json trace_${jobs})
        string(LENGTH "${trace_${jobs}}" trace_bytes_${jobs})
        if(trace_bytes_${jobs} EQUAL 0)
            message(FATAL_ERROR
                "--trace-out wrote an empty file at --jobs ${jobs}")
        endif()
    endforeach()
    if(NOT trace_1 STREQUAL trace_8)
        message(FATAL_ERROR
            "--trace-out differs between --jobs 1 and --jobs 8 — "
            "trace merge broke determinism")
    endif()
    message(STATUS "MODE=trace: merged timelines identical "
                   "(${trace_bytes_1} bytes)")
endif()

string(LENGTH "${out_1}" bytes)
message(STATUS "MODE=${MODE}: --jobs 1 and --jobs 8 stdout identical "
               "(${bytes} bytes)")
