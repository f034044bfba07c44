# Run a command and require an exact exit code.  WILL_FAIL alone is too
# weak for the robustness CLI tests: it passes on any nonzero status,
# including a crash/abort, while these tests must distinguish a clean
# typed-error exit (1) from a usage error (2) or a signal.
#
# Usage:
#   cmake -DCMD=<binary> -DARGS=<;-separated args> -DEXPECTED=<code>
#         [-DWORKDIR=<dir>] [-DSTDERR_REGEX=<regex>] -P expect_exit.cmake
#
# STDERR_REGEX, when given, must also match the command's stderr, so a
# test can pin which diagnosis a failing command prints.
if(NOT DEFINED CMD OR NOT DEFINED EXPECTED)
    message(FATAL_ERROR "expect_exit.cmake needs -DCMD and -DEXPECTED")
endif()
if(NOT DEFINED ARGS)
    set(ARGS "")
endif()
if(NOT DEFINED WORKDIR)
    set(WORKDIR ".")
endif()

execute_process(
    COMMAND ${CMD} ${ARGS}
    WORKING_DIRECTORY ${WORKDIR}
    RESULT_VARIABLE rv
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)

if(NOT rv EQUAL ${EXPECTED})
    message(FATAL_ERROR
        "'${CMD} ${ARGS}' exited with '${rv}', expected ${EXPECTED}\n"
        "--- stdout ---\n${out}\n--- stderr ---\n${err}")
endif()
if(DEFINED STDERR_REGEX AND NOT err MATCHES "${STDERR_REGEX}")
    message(FATAL_ERROR
        "'${CMD} ${ARGS}' stderr does not match '${STDERR_REGEX}'\n"
        "--- stderr ---\n${err}")
endif()
