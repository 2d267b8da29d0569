# CLI contract of tools/xlf_explore, run as a CTest script:
#   cmake -DXLF_EXPLORE=<binary> -DSPEC=<example spec> -DWORK_DIR=<dir> \
#         -P xlf_explore_cli.cmake
#
# Checks that unknown flags exit non-zero and point at --help instead
# of being silently ignored, that malformed flag values are rejected
# at parse time, spec error handling, and that a shipped example spec
# runs clean.

if(NOT DEFINED XLF_EXPLORE OR NOT DEFINED SPEC OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DXLF_EXPLORE=... -DSPEC=... -DWORK_DIR=... -P xlf_explore_cli.cmake")
endif()
file(MAKE_DIRECTORY ${WORK_DIR})
set(probe ${WORK_DIR}/rejected.out)

# Runs xlf_explore with ARGN plus --out: it must exit 2 with a message
# naming `name`, never reach a library precondition or an allocation
# failure, and create no output file.
function(expect_rejected name)
  file(REMOVE ${probe})
  execute_process(COMMAND ${XLF_EXPLORE} ${ARGN} --out ${probe}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "'${ARGN}' must exit 2 (got ${rc}): ${err}")
  endif()
  if(err MATCHES "precondition failed|vector::reserve|bad_alloc")
    message(FATAL_ERROR "'${ARGN}' escaped the option table: ${err}")
  endif()
  if(NOT err MATCHES "${name}")
    message(FATAL_ERROR "'${ARGN}' message must name ${name}, got: ${err}")
  endif()
  if(EXISTS ${probe})
    message(FATAL_ERROR "'${ARGN}' must not create its --out file")
  endif()
endfunction()

# --- the malformed inputs the option table was built for -------------
# The --threads cases carry an invalid grid too, so no value above
# 4096 could reach a ThreadPool even if its range check regressed.
expect_rejected(--ftl-requests --ftl-sweep --ftl-requests -5)
expect_rejected(--ftl-requests --ftl-sweep --ftl-requests abc)
expect_rejected(--ftl-requests --ftl-sweep --ftl-requests 10x)
# In range for the option table but beyond any materialised stream: the
# sweep must name the count's input, not the allocator.
expect_rejected(--ftl-requests --ftl-sweep --ftl-requests 18446744073709551615 --ftl-topologies 1x1)
# The same for the Monte-Carlo replica count and per-replica stream.
expect_rejected("--mc-replicas / monte_carlo.replicas = 18446744073709551615"
                --mc-replicas 18446744073709551615 --ages 1:10:2)
expect_rejected("--mc-requests / monte_carlo.requests = 18446744073709551615"
                --mc-replicas 1 --mc-requests 18446744073709551615
                --ages 1:10:2)
expect_rejected(--ftl-qd --ftl-sweep --ftl-qd 4x)
expect_rejected(--ftl-read-fraction --ftl-sweep --ftl-read-fraction 0.3q)
expect_rejected(--ages --ages 1:1e6:3z)
expect_rejected(--seed --seed 12abc)
expect_rejected(--threads --threads abc --ages 10:1:5)
expect_rejected(--threads --threads 4097 --ages 10:1:5)
expect_rejected(--threads --threads -1 --ages 10:1:5)
expect_rejected(--ftl-topologies --ftl-sweep --ftl-topologies 2x1z)
expect_rejected(--ftl-topologies --ftl-sweep --ftl-topologies -1x1)
expect_rejected(--uber-target --uber-target 5)
expect_rejected(--point --point nope)
expect_rejected(--ftl-read-fraction --ftl-sweep --ftl-read-fraction 1.5)
expect_rejected(--ftl-hot-fraction --ftl-sweep --ftl-hot-fraction 0)
expect_rejected(--ftl-pages --ftl-sweep --ftl-pages 0)
expect_rejected(--ftl-blocks --ftl-sweep --ftl-blocks 4294967297)
expect_rejected(--ages --ages 10:1:5)
expect_rejected(--ftl-data-plane --ftl-sweep --ftl-data-plane flash)
expect_rejected(--ftl-shard-dies --ftl-sweep --ftl-data-plane meta --ftl-shard-dies)
expect_rejected(--workloads --mc-replicas 1 --workloads disk-thrash)
expect_rejected(--ftl-gc --ftl-sweep --ftl-gc fifo)
expect_rejected(--format --format xml)

# --- every numeric flag: non-numeric, trailing junk, negative for an
# unsigned type, one past the type's maximum, and out of range -------
# kind (u = unsigned, d = double, t = topology)|flag|past max|out of range
set(numeric_flags
    "u|--seed|18446744073709551616|"
    "d|--uber-target|1e999|0"
    "u|--mc-replicas|18446744073709551616|"
    "u|--mc-requests|18446744073709551616|0"
    "d|--mc-age|1e999|"
    "u|--ftl-blocks|4294967296|2"
    "u|--ftl-pages|4294967296|0"
    "d|--ftl-initial-wear|1e999|-1"
    "d|--ftl-wear-per-erase|1e999|0.5"
    "d|--ftl-logical-fraction|1e999|1"
    "u|--ftl-requests|18446744073709551616|0"
    "d|--ftl-read-fraction|1e999|1"
    "d|--ftl-hot-fraction|1e999|1.5"
    "d|--ftl-hot-writes|1e999|1.5"
    "d|--ftl-trim-fraction|1e999|1"
    "d|--ftl-queue-weights|1e999|0"
    "u|--ftl-qd|18446744073709551616|0"
    "u|--ftl-queues|18446744073709551616|65537"
    "u|--ftl-fail-blocks|4294967296|"
    "t|--ftl-topologies|4294967296x1|0x1")
foreach(entry IN LISTS numeric_flags)
  string(REPLACE "|" ";" fields "${entry}")
  list(GET fields 0 kind)
  list(GET fields 1 flag)
  list(GET fields 2 past_max)
  set(bad abc 7x ${past_max})
  if(kind STREQUAL "u")
    list(APPEND bad -1)
  elseif(kind STREQUAL "t")
    list(APPEND bad -1x1 1x1z)
  endif()
  list(LENGTH fields count)
  if(count EQUAL 4)
    list(GET fields 3 out_of_range)
    if(NOT out_of_range STREQUAL "")
      list(APPEND bad ${out_of_range})
    endif()
  endif()
  foreach(value IN LISTS bad)
    expect_rejected(${flag} --ftl-sweep ${flag} ${value})
  endforeach()
endforeach()

# --- unknown flag: non-zero exit, names the flag, suggests --help ----
execute_process(COMMAND ${XLF_EXPLORE} --no-such-flag
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "unknown flag must exit non-zero (got 0)")
endif()
if(NOT err MATCHES "unknown flag '--no-such-flag'")
  message(FATAL_ERROR "unknown-flag message must name the flag, got: ${err}")
endif()
if(NOT err MATCHES "--help")
  message(FATAL_ERROR "unknown-flag message must suggest --help, got: ${err}")
endif()

# --- --list-policies: every kind on its own line, exit 0 -------------
execute_process(COMMAND ${XLF_EXPLORE} --list-policies
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--list-policies must exit 0 (got ${rc}): ${err}")
endif()
foreach(kind tuning gc wear refresh arbitration)
  if(NOT out MATCHES "${kind}:")
    message(FATAL_ERROR "--list-policies missing kind '${kind}': ${out}")
  endif()
endforeach()
if(NOT out MATCHES "round-robin" OR NOT out MATCHES "weighted")
  message(FATAL_ERROR "--list-policies missing arbitration built-ins: ${out}")
endif()

# --- --version/--build-info: provenance lines, exit 0 ----------------
foreach(flag --version --build-info)
  execute_process(COMMAND ${XLF_EXPLORE} ${flag}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${flag} must exit 0 (got ${rc}): ${err}")
  endif()
  foreach(field "xlf_explore " "compiler:" "build type:" "sanitizers:")
    if(NOT out MATCHES "${field}")
      message(FATAL_ERROR "${flag} output missing '${field}': ${out}")
    endif()
  endforeach()
endforeach()

# --- --version is exclusive with --spec ------------------------------
execute_process(COMMAND ${XLF_EXPLORE} --version --spec ${SPEC}
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "--version --spec must exit non-zero (got 0)")
endif()
if(NOT err MATCHES "exclusive")
  message(FATAL_ERROR "--version/--spec conflict message unclear, got: ${err}")
endif()

# --- an unknown flag with a valid one around it still fails ----------
execute_process(COMMAND ${XLF_EXPLORE} --threads 1 --ftl-swep
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "misspelled flag must exit non-zero (got 0)")
endif()

# --- missing spec file: non-zero with a clear message ----------------
execute_process(COMMAND ${XLF_EXPLORE} --spec /nonexistent/spec.json
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "missing spec file must exit non-zero (got 0)")
endif()
if(NOT err MATCHES "cannot open")
  message(FATAL_ERROR "missing-spec message unclear, got: ${err}")
endif()

# --- --spec conflicts with sweep-shaping flags -----------------------
execute_process(COMMAND ${XLF_EXPLORE} --spec ${SPEC} --ftl-sweep
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "--spec + shaping flags must exit non-zero (got 0)")
endif()
if(NOT err MATCHES "exclusive")
  message(FATAL_ERROR "--spec conflict message unclear, got: ${err}")
endif()

# --- --ftl-perf needs JSON: the CSV report has no throughput column --
foreach(format_args "" "--format;csv")
  execute_process(COMMAND ${XLF_EXPLORE} --ftl-sweep --ftl-perf ${format_args}
                  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_VARIABLE out)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "--ftl-perf with CSV output must exit 2 (got ${rc})")
  endif()
  if(NOT err MATCHES "--format json")
    message(FATAL_ERROR "--ftl-perf/CSV message must name --format json, got: ${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "--ftl-perf with CSV output must print no report")
  endif()
endforeach()

# --- a shipped example spec runs and is thread-count deterministic ---
execute_process(COMMAND ${XLF_EXPLORE} --spec ${SPEC} --threads 1
                RESULT_VARIABLE rc1 OUTPUT_VARIABLE run1 ERROR_VARIABLE err1)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "--spec ${SPEC} failed (${rc1}): ${err1}")
endif()
execute_process(COMMAND ${XLF_EXPLORE} --spec ${SPEC} --threads 4
                RESULT_VARIABLE rc4 OUTPUT_VARIABLE run4 ERROR_VARIABLE err4)
if(NOT rc4 EQUAL 0)
  message(FATAL_ERROR "--spec ${SPEC} --threads 4 failed (${rc4}): ${err4}")
endif()
if(NOT run1 STREQUAL run4)
  message(FATAL_ERROR "--spec output differs between --threads 1 and 4")
endif()
if(run1 STREQUAL "")
  message(FATAL_ERROR "--spec produced no output")
endif()
