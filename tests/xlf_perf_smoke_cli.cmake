# Argument handling of tools/xlf_perf_smoke, run as a CTest script:
#   cmake -DXLF_PERF_SMOKE=<binary> -DWORK_DIR=<scratch dir> -P xlf_perf_smoke_cli.cmake
#
# --help prints the usage and exits 0; an unknown flag prints the
# usage and exits 2. Neither may measure anything or write a file: both
# run in an empty directory that must still be empty afterwards.

if(NOT DEFINED XLF_PERF_SMOKE OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DXLF_PERF_SMOKE=... -DWORK_DIR=... -P xlf_perf_smoke_cli.cmake")
endif()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

function(expect_no_files what)
  file(GLOB created RELATIVE ${WORK_DIR} ${WORK_DIR}/* ${WORK_DIR}/.*)
  if(created)
    message(FATAL_ERROR "${what} created files: ${created}")
  endif()
endfunction()

# --- --help: usage on stdout, exit 0 ---------------------------------
execute_process(COMMAND ${XLF_PERF_SMOKE} --help
                WORKING_DIRECTORY ${WORK_DIR}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--help must exit 0 (got ${rc}): ${err}")
endif()
if(NOT out MATCHES "usage: xlf_perf_smoke")
  message(FATAL_ERROR "--help must print the usage, got: ${out}")
endif()
expect_no_files("--help")

# --- unknown flag: names it, usage on stderr, exit 2 -----------------
execute_process(COMMAND ${XLF_PERF_SMOKE} --no-such-flag
                WORKING_DIRECTORY ${WORK_DIR}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "unknown flag must exit 2 (got ${rc})")
endif()
if(NOT err MATCHES "unknown flag '--no-such-flag'")
  message(FATAL_ERROR "unknown-flag message must name the flag, got: ${err}")
endif()
if(NOT err MATCHES "usage: xlf_perf_smoke")
  message(FATAL_ERROR "unknown flag must print the usage, got: ${err}")
endif()
expect_no_files("an unknown flag")

# --- a second output path is rejected the same way -------------------
execute_process(COMMAND ${XLF_PERF_SMOKE} a.json b.json
                WORKING_DIRECTORY ${WORK_DIR}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "two output paths must exit 2 (got ${rc}): ${err}")
endif()
expect_no_files("two output paths")

file(REMOVE_RECURSE ${WORK_DIR})
