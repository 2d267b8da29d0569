# The shipped smoke spec and its flag line print the same bytes:
#   cmake -DXLF_EXPLORE=<binary> -DSPEC=<examples/specs/ftl_smoke.json> \
#         -DWORK_DIR=<dir> -P xlf_explore_spec_matches_flags.cmake
#
# examples/specs/ftl_smoke.json is `--ftl-sweep --ftl-requests 64`
# written as JSON (its topologies, queue depths and GC policies are the
# flag defaults), so both runs must produce identical CSV and JSON.

if(NOT DEFINED XLF_EXPLORE OR NOT DEFINED SPEC OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DXLF_EXPLORE=... -DSPEC=... -DWORK_DIR=... -P xlf_explore_spec_matches_flags.cmake")
endif()
file(MAKE_DIRECTORY ${WORK_DIR})

foreach(format csv json)
  execute_process(COMMAND ${XLF_EXPLORE} --spec ${SPEC} --format ${format}
                          --threads 2 --out ${WORK_DIR}/spec.${format}
                  RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "--spec ${SPEC} failed (${rc}): ${err}")
  endif()
  execute_process(COMMAND ${XLF_EXPLORE} --ftl-sweep --ftl-requests 64
                          --format ${format} --threads 2
                          --out ${WORK_DIR}/flags.${format}
                  RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "flag line failed (${rc}): ${err}")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          ${WORK_DIR}/spec.${format} ${WORK_DIR}/flags.${format}
                  RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "${format}: --spec ${SPEC} and its flag line differ")
  endif()
endforeach()
