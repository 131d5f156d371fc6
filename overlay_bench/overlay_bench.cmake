# Adds the overlay_bench harness to the repository's own build, so that it
# is compiled with the same flags, OVL_PROFILE setting and libraries as
# every other bench binary. run_benchmark.py configures the top-level
# CMakeLists.txt with -DCMAKE_PROJECT_INCLUDE=<this file>; project()
# includes it, and the deferred call runs once the top level (and with it
# bench/, which defines ovl_add_bench) has been read.
set(OVERLAY_BENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(overlay_bench_add)
    # ovl_add_bench names <name>.cc of the calling directory; the harness
    # lives in this one.
    ovl_add_bench(overlay_bench)
    set_property(TARGET overlay_bench
        PROPERTY SOURCES "${OVERLAY_BENCH_DIR}/overlay_bench.cc")

    # Smoke check: 8 units of every workload at seed 1 against the pinned
    # fingerprints, including fork_oow's peek check.
    find_package(Python3 REQUIRED COMPONENTS Interpreter)
    add_test(NAME overlay_bench_smoke
        COMMAND ${Python3_EXECUTABLE}
            ${OVERLAY_BENCH_DIR}/run_benchmark.py
            --smoke $<TARGET_FILE:overlay_bench>)
endfunction()

cmake_language(DEFER CALL overlay_bench_add)
