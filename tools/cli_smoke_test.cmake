# Smoke test for dsct_cli: solvers → generate → solve → validate → simulate
# → serve.
function(run_step)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE code OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "step failed (${code}): ${ARGV}\n${out}\n${err}")
  endif()
  set(last_out "${out}" PARENT_SCOPE)
endfunction()

set(inst ${WORKDIR}/cli_instance.txt)
set(sched ${WORKDIR}/cli_schedule.txt)

# The registry listing must name every builtin solver.
run_step(${CLI} solvers)
foreach(solver approx fr-opt edf edf3 levels-opt mip-warm mip-cold fr-lp)
  if(NOT last_out MATCHES "${solver}")
    message(FATAL_ERROR "`solvers` output misses '${solver}':\n${last_out}")
  endif()
endforeach()

run_step(${CLI} generate --tasks 8 --machines 2 --seed 7 --out ${inst})
run_step(${CLI} solve ${inst} --algo approx --out ${sched})
run_step(${CLI} validate ${inst} ${sched})
run_step(${CLI} simulate ${inst} ${sched})
run_step(${CLI} solve ${inst} --algo edf)
run_step(${CLI} solve ${inst} --algo edf3)
run_step(${CLI} solve ${inst} --algo levels-opt)
run_step(${CLI} solve ${inst} --algo fr-opt)
# Aliases resolve through the registry exactly like primary names.
run_step(${CLI} solve ${inst} --algo frlp)
run_step(${CLI} solve ${inst} --algo dsct-ea-approx)
run_step(${CLI} solve ${inst} --algo mip --time-limit 10)
run_step(${CLI} solve ${inst} --algo mip-cold --time-limit 10)
run_step(${CLI} info ${inst} --tasks)
# Serving loop: fault-free, then with the full fault model engaged, then a
# registry policy with an explicit two-entry fallback chain.
run_step(${CLI} serve --policy approx --horizon 2 --backlog)
run_step(${CLI} serve --policy approx --horizon 2 --backlog --faults
         --fault-seed 99 --mtbf 1.5 --mttr 0.8 --slow-mtbf 3 --slow-mean 0.5
         --slow-factor 0.5 --shock-prob 0.4 --shock-factor 0.3
         --max-retries 2 --load-factor 8 --incidents)
run_step(${CLI} serve --policy levels-opt --fallback edf,edf3 --horizon 2
         --faults --fault-seed 99 --mtbf 1.5 --mttr 0.8 --incidents)
# Sharded primary: the coordinator must run and report its price loop.
run_step(${CLI} serve --policy approx --horizon 2 --backlog --shards 2
         --shard-seed 11)
if(NOT last_out MATCHES "sharded epochs")
  message(FATAL_ERROR "serve --shards misses the shard section:\n${last_out}")
endif()
# Availability layer: departures + battery, with the incident log exported
# as CSV.
set(incidents_csv ${WORKDIR}/cli_incidents.csv)
run_step(${CLI} serve --policy approx --horizon 2 --backlog --avail
         --avail-seed 7 --depart-mtbf 1.5 --depart-mean 1 --battery 12
         --battery-init 0.8 --recharge 10 --incidents
         --incidents-csv ${incidents_csv})
if(NOT EXISTS ${incidents_csv})
  message(FATAL_ERROR "--incidents-csv did not write ${incidents_csv}")
endif()
file(READ ${incidents_csv} incidents_head)
if(NOT incidents_head MATCHES "epoch,kind,depth,payload")
  message(FATAL_ERROR "incident CSV misses its header:\n${incidents_head}")
endif()

# Scenario DSL surface. `scenarios` must list the whole zoo without a parse
# error; serve --scenario must replay bit-identically run-to-run; explicit
# flags must override the file's values.
run_step(${CLI} scenarios ${SCENARIO_DIR})
foreach(name steady_web diurnal flash_crowd mixed_sla volunteer_fleet
        million_tasks)
  if(NOT last_out MATCHES "${name}")
    message(FATAL_ERROR "`scenarios` output misses '${name}':\n${last_out}")
  endif()
endforeach()

run_step(${CLI} serve --scenario ${SCENARIO_DIR}/diurnal.dsct --seed 7)
set(serve_a "${last_out}")
run_step(${CLI} serve --scenario ${SCENARIO_DIR}/diurnal.dsct --seed 7)
if(NOT serve_a STREQUAL last_out)
  message(FATAL_ERROR
          "serve --scenario is not bit-identical across runs:\n"
          "${serve_a}\n---\n${last_out}")
endif()
if(NOT serve_a MATCHES "scenario       : diurnal")
  message(FATAL_ERROR "serve --scenario misses the scenario line:\n${serve_a}")
endif()

# Flag override: a different seed must change the run, a clamped horizon must
# shrink the epoch count (12 s / 0.5 s = 24 epochs → 2 s / 0.5 s = 4).
run_step(${CLI} serve --scenario ${SCENARIO_DIR}/diurnal.dsct --seed 8)
if(serve_a STREQUAL last_out)
  message(FATAL_ERROR "--seed override did not change the scenario run")
endif()
run_step(${CLI} serve --scenario ${SCENARIO_DIR}/diurnal.dsct --seed 7
         --horizon 2 --policy edf3)
if(NOT last_out MATCHES "over 4 epochs")
  message(FATAL_ERROR "--horizon override did not clamp the run:\n${last_out}")
endif()

# Availability scenario end-to-end, and the million-task stress file with the
# horizon clamped to keep the smoke test fast.
run_step(${CLI} serve --scenario ${SCENARIO_DIR}/volunteer_fleet.dsct
         --horizon 3)
run_step(${CLI} serve --scenario ${SCENARIO_DIR}/million_tasks.dsct
         --horizon 2)
# The flash crowd's spike overruns its load factor: admission control sheds.
run_step(${CLI} serve --scenario ${SCENARIO_DIR}/flash_crowd.dsct)
if(NOT last_out MATCHES "shed +: [1-9]")
  message(FATAL_ERROR "flash_crowd shed nothing:\n${last_out}")
endif()

# Rejected flags exit 1 naming the flag and run nothing: no hang (nan), no
# unbounded arrival stream (inf), no silent truncation (2x, 2.9), and no
# flag the subcommand does not read (a misspelling must not serve unshed).
# Each run is time-boxed so a regression fails instead of hanging ctest.
function(expect_flag_rejected message)
  execute_process(COMMAND ${CLI} ${ARGN} TIMEOUT 10
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 1 OR NOT err MATCHES "${message}" OR NOT out STREQUAL "")
    list(JOIN ARGN " " args)
    message(FATAL_ERROR "${args} should exit 1 with '${message}' and print "
                        "nothing to stdout, got (${code}):\n${out}\n${err}")
  endif()
endfunction()
expect_flag_rejected(--horizon serve --horizon nan)
expect_flag_rejected(--horizon serve --horizon inf)
expect_flag_rejected(--horizon serve
                     --scenario ${SCENARIO_DIR}/million_tasks.dsct
                     --horizon inf)
expect_flag_rejected(--horizon serve --horizon 2x)
expect_flag_rejected(--shards serve --shards 2.9)
expect_flag_rejected("unknown flag --load-facter for `serve`"
                     serve --gpus T4 --horizon 1 --load-facter 3)
expect_flag_rejected("unknown flag --trace for `simulate`"
                     simulate ${inst} ${sched} --trace)
expect_flag_rejected("unknown flag --nonsense for `solvers`"
                     solvers --nonsense)

# Files with a non-finite number are rejected too, naming the line: an
# infinite deadline would make FR-OPT stop below the LP optimum, and an
# infinite duration would simulate to infinite energy.
set(inf_inst ${WORKDIR}/cli_inf_instance.txt)
run_step(${CLI} generate --tasks 6 --machines 2 --rho 0.3 --beta 0.5
         --seed 11 --out ${inf_inst})
file(READ ${inf_inst} inf_text)
# task-5 has the latest deadline, on line 10.
string(REGEX REPLACE "task task-5 [^ ]+ " "task task-5 inf " inf_text
       "${inf_text}")
file(WRITE ${inf_inst} "${inf_text}")
expect_flag_rejected("line 10: expected finite number"
                     solve ${inf_inst} --algo approx)
set(inf_sched ${WORKDIR}/cli_inf_schedule.txt)
file(READ ${sched} inf_text)
string(REGEX REPLACE "assign 0 ([^ ]+) [^\n]+" "assign 0 \\1 inf" inf_text
       "${inf_text}")
file(WRITE ${inf_sched} "${inf_text}")
expect_flag_rejected("line 2: expected finite number"
                     simulate ${inst} ${inf_sched})

# Conflicting flags and malformed files fail loudly.
execute_process(COMMAND ${CLI} serve --scenario ${SCENARIO_DIR}/diurnal.dsct
                --gpus T4 RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(code EQUAL 0)
  message(FATAL_ERROR "serve --scenario --gpus should have been rejected")
endif()
file(WRITE ${WORKDIR}/cli_bad.dsct "machine class {\n  bogus: 1\n}\n")
execute_process(COMMAND ${CLI} serve --scenario ${WORKDIR}/cli_bad.dsct
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(code EQUAL 0)
  message(FATAL_ERROR "malformed scenario should have failed")
endif()
if(NOT "${out}${err}" MATCHES "cli_bad.dsct:2")
  message(FATAL_ERROR
          "malformed-scenario diagnostic misses file:line:\n${out}\n${err}")
endif()
