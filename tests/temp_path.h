// Per-process scratch file names for the suites that write files.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>

namespace sparqlsim_test {

/// Path of the scratch file `name` in a directory under
/// ::testing::TempDir() that belongs to this process alone. Two test runs
/// at once (say, from two build directories) then never write, truncate or
/// map each other's files. The directory is created on first use and
/// removed, with everything in it, when the process exits.
inline std::string TempPath(std::string_view name) {
  struct ScratchDir {
    std::filesystem::path path =
        std::filesystem::path(::testing::TempDir()) /
        ("sparqlsim_test_" + std::to_string(::getpid()));
    ScratchDir() { std::filesystem::create_directories(path); }
    ScratchDir(const ScratchDir&) = delete;
    ScratchDir& operator=(const ScratchDir&) = delete;
    ~ScratchDir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  };
  static const ScratchDir dir;
  return (dir.path / name).string();
}

}  // namespace sparqlsim_test
