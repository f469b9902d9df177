# Benchmark regression gate. Run via:
#
#   cmake --build build --target bench_gate        # or: ctest -C perf
#
# Re-runs the micro_sim engine benchmarks and fails if any benchmark's
# cpu_time regressed more than TOLERANCE percent against the committed
# baseline (BENCH_micro_sim.json at the repo root). Also runs the
# trace-overhead check: the engine schedule/dispatch path with an idle
# (disabled) tracer must not be measurably slower than with no tracer at
# all — tracing that taxes the simulator when off is a regression even if
# absolute numbers moved.
#
# Inputs (all required, passed with -D):
#   BASELINE     committed BENCH_micro_sim.json
#   MICRO_SIM    path to the micro_sim binary
#   TRACE_BENCH  path to the abl_trace_overhead binary
#   TENANCY_BENCH path to the bench_tenancy binary
#   OUT_DIR      scratch directory for fresh JSON output
#   TOLERANCE    allowed regression in percent (e.g. 20)
#
# Optional:
#   CLIFF_FLOOR  minimum exclusive-mode connection-scale latency cliff
#                (default 1.25)
#   TAIL_FLOOR   minimum noisy-neighbor victim-p99 restoration by the
#                CoRD policy chain vs the bypassed run (default 2.0)
#   SYSCALL_BATCH_FLOOR  minimum simulated per-op speedup of tx_batch=16
#                over tx_batch=1 on the CoRD deep-pipeline bandwidth run
#                (default 1.5; virtual-time, so this is a hard floor)
#
# Note: the dev host is a 4-vCPU KVM guest shared with other jobs, so wall
# times are noisy; the tolerance is deliberately generous and the gate runs
# each binary once. Treat a failure as "rerun and investigate", not proof
# by itself.
cmake_minimum_required(VERSION 3.19)  # string(JSON)

foreach(var BASELINE MICRO_SIM TRACE_BENCH TENANCY_BENCH OUT_DIR TOLERANCE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_gate: missing -D${var}")
  endif()
endforeach()

file(MAKE_DIRECTORY "${OUT_DIR}")

# {name -> cpu_time} of a google-benchmark JSON file into <prefix>_<name>.
function(load_bench_times json_file prefix)
  file(READ "${json_file}" _doc)
  string(JSON _n LENGTH "${_doc}" "benchmarks")
  math(EXPR _last "${_n} - 1")
  set(_names "")
  foreach(i RANGE 0 ${_last})
    string(JSON _name GET "${_doc}" "benchmarks" ${i} "name")
    string(JSON _time GET "${_doc}" "benchmarks" ${i} "cpu_time")
    string(MAKE_C_IDENTIFIER "${_name}" _id)
    set(${prefix}_${_id} "${_time}" PARENT_SCOPE)
    # Custom counters land as top-level keys of the benchmark entry. The
    # deterministic virtual-time figure of merit (BM_SyscallBatch) rides in
    # sim_ns_per_op; absent for every other benchmark.
    string(JSON _sim ERROR_VARIABLE _sim_err GET "${_doc}" "benchmarks" ${i}
           "sim_ns_per_op")
    if(_sim_err STREQUAL "NOTFOUND")
      set(${prefix}_SIM_${_id} "${_sim}" PARENT_SCOPE)
    endif()
    list(APPEND _names "${_name}")
  endforeach()
  set(${prefix}_NAMES "${_names}" PARENT_SCOPE)
endfunction()

# Float regression test (cpu_time comes as scientific-notation ns; CMake
# math() is integer-only, so delegate the comparison to awk).
# Sets ${out} to the +% regression if new > base * (1 + tol/100), else "".
function(check_regression base new tol out)
  execute_process(
    COMMAND awk -v b=${base} -v n=${new} -v t=${tol}
            "BEGIN { if (n > b * (1 + t / 100.0)) printf \"%.1f\", (n / b - 1) * 100; }"
    OUTPUT_VARIABLE _pct RESULT_VARIABLE _rc)
  if(NOT _rc EQUAL 0)
    message(FATAL_ERROR "bench_gate: awk comparison failed")
  endif()
  set(${out} "${_pct}" PARENT_SCOPE)
endfunction()

set(_failures "")

# Fresh outputs are named BENCH_*.json so CI can upload them verbatim as
# artifacts (the workflow globs build/bench_gate/BENCH_*.json).

# --- 1. micro_sim vs committed baseline ------------------------------------
set(_fresh "${OUT_DIR}/BENCH_micro_sim.json")
execute_process(
  COMMAND "${MICRO_SIM}" --benchmark_format=json --benchmark_out=${_fresh}
          --benchmark_out_format=json --benchmark_min_time=0.3
  RESULT_VARIABLE _rc OUTPUT_QUIET)
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "bench_gate: micro_sim failed (rc=${_rc})")
endif()

load_bench_times("${BASELINE}" BASE)
load_bench_times("${_fresh}" FRESH)

foreach(_name ${BASE_NAMES})
  string(MAKE_C_IDENTIFIER "${_name}" _id)
  if(NOT DEFINED FRESH_${_id})
    list(APPEND _failures "${_name}: present in baseline, missing from fresh run")
    continue()
  endif()
  check_regression("${BASE_${_id}}" "${FRESH_${_id}}" "${TOLERANCE}" _pct)
  if(_pct)
    list(APPEND _failures
         "${_name}: cpu_time ${FRESH_${_id}} ns vs baseline ${BASE_${_id}} ns (+${_pct}%, limit +${TOLERANCE}%)")
  endif()
endforeach()

# --- 1c. NIC hot-loop gate --------------------------------------------------
# The NIC send-queue burst drain (DESIGN.md §15) is gated through the
# BM_NicEndToEndMessage + BM_NicBurst entries of the committed baseline.
# Section 1 already fails on >TOLERANCE% cpu_time regression for every
# baseline entry; this block additionally fails if the NIC family is
# missing from the BASELINE itself, so dropping the benchmarks (or
# regenerating the baseline without them) can't silently disarm the gate.
set(_nic_required
    "BM_NicEndToEndMessage"
    "BM_NicBurst/burst:1/bytes:64/depth:256/min_time:1.000"
    "BM_NicBurst/burst:16/bytes:64/depth:256/min_time:1.000"
    "BM_NicBurst/burst:256/bytes:64/depth:256/min_time:1.000"
    "BM_NicBurst/burst:256/bytes:4096/depth:256/min_time:1.000"
    "BM_NicBurst/burst:16/bytes:65536/depth:64/min_time:1.000")
foreach(_name ${_nic_required})
  string(MAKE_C_IDENTIFIER "${_name}" _id)
  if(NOT DEFINED BASE_${_id})
    list(APPEND _failures
         "NIC gate: ${_name} missing from committed baseline ${BASELINE}")
  elseif(DEFINED FRESH_${_id})
    message(STATUS "NIC gate (${_name}): ${FRESH_${_id}} vs baseline "
            "${BASE_${_id}} ns")
  endif()
endforeach()

# --- 1d. syscall-batch amortization floor -----------------------------------
# BM_SyscallBatch reports *simulated* nanoseconds per posted message —
# deterministic virtual time, immune to host noise — so this is a hard
# floor, not a tolerance check: the submission ring must make the CoRD
# deep-pipeline small-message run at least SYSCALL_BATCH_FLOOR x cheaper
# per op at tx_batch=16 than at tx_batch=1, at both swept depths. Both
# numbers come from the same fresh pass.
if(NOT DEFINED SYSCALL_BATCH_FLOOR)
  set(SYSCALL_BATCH_FLOOR 1.5)
endif()
foreach(_depth 64 256)
  string(MAKE_C_IDENTIFIER
         "BM_SyscallBatch/depth:${_depth}/batch:1/bypass:0" _b1)
  string(MAKE_C_IDENTIFIER
         "BM_SyscallBatch/depth:${_depth}/batch:16/bypass:0" _b16)
  if(NOT DEFINED FRESH_SIM_${_b1} OR NOT DEFINED FRESH_SIM_${_b16})
    list(APPEND _failures
         "syscall-batch floor: BM_SyscallBatch depth:${_depth} entries (or their sim_ns_per_op counters) missing from fresh run")
    continue()
  endif()
  execute_process(
    COMMAND awk -v b1=${FRESH_SIM_${_b1}} -v b16=${FRESH_SIM_${_b16}}
            -v f=${SYSCALL_BATCH_FLOOR}
            "BEGIN { printf \"%.2f\", b1 / b16; if (b1 >= b16 * f) exit 0; exit 1 }"
    OUTPUT_VARIABLE _ratio RESULT_VARIABLE _rc)
  if(NOT _rc EQUAL 0)
    list(APPEND _failures
         "syscall-batch floor: tx_batch=16 is only ${_ratio}x cheaper than tx_batch=1 at depth ${_depth} (${FRESH_SIM_${_b16}} vs ${FRESH_SIM_${_b1}} sim ns/op, floor ${SYSCALL_BATCH_FLOOR}x)")
  else()
    message(STATUS "syscall-batch amortization (depth ${_depth}): "
            "${_ratio}x over per-op submission (floor ${SYSCALL_BATCH_FLOOR}x) — OK")
  endif()
endforeach()

# Anti-disarm check (same idea as the NIC gate): the entries carrying the
# amortization floor must exist in the committed baseline itself, so
# regenerating BENCH_micro_sim.json without them cannot drop the gate.
foreach(_name
    "BM_SyscallBatch/depth:64/batch:1/bypass:0"
    "BM_SyscallBatch/depth:64/batch:16/bypass:0"
    "BM_SyscallBatch/depth:256/batch:1/bypass:0"
    "BM_SyscallBatch/depth:256/batch:16/bypass:0"
    "BM_SyscallBatch/depth:64/batch:1/bypass:1")
  string(MAKE_C_IDENTIFIER "${_name}" _id)
  if(NOT DEFINED BASE_${_id})
    list(APPEND _failures
         "syscall-batch gate: ${_name} missing from committed baseline ${BASELINE}")
  endif()
endforeach()

# --- 2. trace-overhead check ----------------------------------------------
set(_trace "${OUT_DIR}/BENCH_trace_overhead.json")
execute_process(
  COMMAND "${TRACE_BENCH}" --benchmark_format=json --benchmark_out=${_trace}
          --benchmark_out_format=json --benchmark_min_time=0.3
          --benchmark_filter=BM_ScheduleDispatch
  RESULT_VARIABLE _rc OUTPUT_QUIET)
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "bench_gate: abl_trace_overhead failed (rc=${_rc})")
endif()

load_bench_times("${_trace}" TR)
if(NOT DEFINED TR_BM_ScheduleDispatch_NoTracer OR
   NOT DEFINED TR_BM_ScheduleDispatch_TracerIdle OR
   NOT DEFINED TR_BM_ScheduleDispatch_CausalIdle)
  list(APPEND _failures
       "trace-overhead benchmarks missing from abl_trace_overhead output")
else()
  check_regression("${TR_BM_ScheduleDispatch_NoTracer}"
                   "${TR_BM_ScheduleDispatch_TracerIdle}" "${TOLERANCE}" _pct)
  if(_pct)
    list(APPEND _failures
         "idle tracer taxes the engine dispatch path: ${TR_BM_ScheduleDispatch_TracerIdle} ns vs ${TR_BM_ScheduleDispatch_NoTracer} ns (+${_pct}%, limit +${TOLERANCE}%)")
  else()
    message(STATUS "trace overhead (engine dispatch, idle tracer vs none): "
            "${TR_BM_ScheduleDispatch_TracerIdle} vs ${TR_BM_ScheduleDispatch_NoTracer} ns — OK")
  endif()
  # The causal analysis layer (aggregator + armed watchdog) is pull-based:
  # with tracing disabled it must add nothing to the dispatch path either.
  check_regression("${TR_BM_ScheduleDispatch_NoTracer}"
                   "${TR_BM_ScheduleDispatch_CausalIdle}" "${TOLERANCE}" _pct)
  if(_pct)
    list(APPEND _failures
         "idle causal layer taxes the engine dispatch path: ${TR_BM_ScheduleDispatch_CausalIdle} ns vs ${TR_BM_ScheduleDispatch_NoTracer} ns (+${_pct}%, limit +${TOLERANCE}%)")
  else()
    message(STATUS "causal-layer overhead (engine dispatch, armed-but-idle "
            "aggregator vs none): ${TR_BM_ScheduleDispatch_CausalIdle} vs "
            "${TR_BM_ScheduleDispatch_NoTracer} ns — OK")
  endif()
endif()

# --- 4. massive-tenancy scenarios --------------------------------------------
# bench_tenancy emits *simulated* (virtual-time, deterministic) numbers,
# so these are hard floors, not noise-tolerant regression checks:
#   - the exclusive-mode qps sweep must reproduce the ICM context cliff
#     (16384 connections vs 1024 at a 4096-entry cache: >= CLIFF_FLOOR);
#   - shared mode at one million logical connections must stay bounded
#     (exactly the 64-QP pool; <= 64 MiB of connection-table memory);
#   - the CoRD policy chain must restore the noisy-neighbor victims' p99
#     by >= TAIL_FLOOR over the bypassed run, while actually denying
#     attacker ops (a chain that never bites proves nothing).
if(NOT DEFINED CLIFF_FLOOR)
  set(CLIFF_FLOOR 1.25)
endif()
if(NOT DEFINED TAIL_FLOOR)
  set(TAIL_FLOOR 2.0)
endif()
set(_tenancy "${OUT_DIR}/BENCH_tenancy.json")
execute_process(
  COMMAND "${TENANCY_BENCH}" "${_tenancy}"
  RESULT_VARIABLE _rc OUTPUT_QUIET)
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "bench_gate: bench_tenancy failed (rc=${_rc})")
endif()
file(READ "${_tenancy}" _tdoc)
foreach(_key cliff_ratio shared_1m_physical_qps shared_1m_conn_table_bytes
        victim_tail_restore noisy_cord_attacker_denied
        noisy_cord_attacker_reg_denied)
  string(JSON _${_key} GET "${_tdoc}" "${_key}")
endforeach()

execute_process(
  COMMAND awk -v r=${_cliff_ratio} -v f=${CLIFF_FLOOR}
          "BEGIN { exit (r >= f) ? 0 : 1 }"
  RESULT_VARIABLE _rc)
if(NOT _rc EQUAL 0)
  list(APPEND _failures
       "tenancy: exclusive-mode connection cliff is only ${_cliff_ratio}x (floor ${CLIFF_FLOOR}x) — the ICM miss path has gone flat")
else()
  message(STATUS "tenancy: connection cliff ${_cliff_ratio}x at 16384 "
          "connections (floor ${CLIFF_FLOOR}x) — OK")
endif()

if(NOT _shared_1m_physical_qps EQUAL 64)
  list(APPEND _failures
       "tenancy: shared mode at 1M logical connections created ${_shared_1m_physical_qps} physical QPs (expected the 64-QP pool)")
endif()
if(_shared_1m_conn_table_bytes GREATER 67108864)
  list(APPEND _failures
       "tenancy: shared-mode connection table is ${_shared_1m_conn_table_bytes} B at 1M logical connections (bound: 64 MiB)")
else()
  message(STATUS "tenancy: shared mode at 1M logical connections — "
          "${_shared_1m_physical_qps} QPs, ${_shared_1m_conn_table_bytes} B — OK")
endif()

execute_process(
  COMMAND awk -v r=${_victim_tail_restore} -v f=${TAIL_FLOOR}
          "BEGIN { exit (r >= f) ? 0 : 1 }"
  RESULT_VARIABLE _rc)
if(NOT _rc EQUAL 0)
  list(APPEND _failures
       "tenancy: policy chain restores victim p99 by only ${_victim_tail_restore}x (floor ${TAIL_FLOOR}x)")
else()
  message(STATUS "tenancy: noisy-neighbor victim p99 restored "
          "${_victim_tail_restore}x by the policy chain (floor ${TAIL_FLOOR}x) — OK")
endif()
if(_noisy_cord_attacker_denied EQUAL 0)
  list(APPEND _failures
       "tenancy: the op-rate quota never denied the attacker — the chain is not biting")
endif()
if(_noisy_cord_attacker_reg_denied EQUAL 0)
  list(APPEND _failures
       "tenancy: the registration quota never denied the attacker's MR churn")
endif()

if(_failures)
  string(REPLACE ";" "\n  " _msg "${_failures}")
  message(FATAL_ERROR "bench_gate FAILED:\n  ${_msg}")
endif()
message(STATUS "bench_gate: all benchmarks within +${TOLERANCE}% of baseline")
