# Runs gdlog_cli on one golden case and compares its stdout byte for byte
# with the committed expected output. The expected files were produced by
# an earlier engine version, so this pins the CLI's JSON across versions,
# not just across thread counts. Usage (as registered in
# tests/CMakeLists.txt):
#
#   cmake -DCLI=<gdlog_cli> -DARGS="<flags>" -DEXPECTED=<file.json>
#         -DOUT=<actual.json> -P compare_cli.cmake
separate_arguments(cli_args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${CLI}" ${cli_args} --outcomes --events --json
  OUTPUT_FILE "${OUT}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gdlog_cli exited with ${rc}")
endif()
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUT}" "${EXPECTED}"
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from ${EXPECTED}")
endif()
