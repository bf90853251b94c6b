# Guard: library code takes every switch from its config structs, never
# from the environment, and tests never mutate the process environment
# (a setenv leaks into every test that runs after it in the process).
#
#   cmake -DRSAFE_ROOT=<repo root> -P tests/no_env_switches.cmake

file(GLOB_RECURSE lib_files "${RSAFE_ROOT}/src/*")
file(GLOB_RECURSE test_files "${RSAFE_ROOT}/tests/*.cc"
     "${RSAFE_ROOT}/tests/*.h")

set(violations "")
foreach(file ${lib_files})
    file(STRINGS "${file}" hits REGEX "getenv")
    foreach(hit ${hits})
        string(APPEND violations "\n  ${file}: ${hit}")
    endforeach()
endforeach()
foreach(file ${test_files})
    file(STRINGS "${file}" hits REGEX "setenv")
    foreach(hit ${hits})
        string(APPEND violations "\n  ${file}: ${hit}")
    endforeach()
endforeach()

if(violations)
    message(FATAL_ERROR
            "environment switches (getenv under src/, setenv/unsetenv "
            "under tests/):${violations}")
endif()
