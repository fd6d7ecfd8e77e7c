# Project-include hook: `cmake -DCMAKE_PROJECT_INCLUDE=<this file>` on the
# repository root includes the benchmark's CMakeLists.txt into the
# repository's own project once the root CMakeLists.txt has declared every
# library target. The repository's build files stay untouched.
if(NOT PERFBENCH_ATTACHED AND CMAKE_CURRENT_SOURCE_DIR STREQUAL CMAKE_SOURCE_DIR)
  set(PERFBENCH_ATTACHED ON)
  get_filename_component(_perfbench_dir "${CMAKE_CURRENT_LIST_DIR}/.." ABSOLUTE)
  cmake_language(EVAL CODE
    "cmake_language(DEFER DIRECTORY [[${CMAKE_SOURCE_DIR}]] CALL include [[${_perfbench_dir}/CMakeLists.txt]])")
endif()
