// Temporary file names for the test binaries, unique per process and
// per test.
//
// ctest runs every gtest case as its own process and, under -j, runs
// cases of one binary side by side; a fixed name under the temp
// directory would then be written, renamed and deleted by several cases
// at once. temp_path() qualifies a name with the process id and the
// running test's suite and name, so no two concurrent cases (nor two
// processes running the same case) share a file.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

namespace rumor::test {

/// <temp dir>/rumor_<pid>_<Suite>.<Test>_<name>. Call it from inside a
/// test (or a fixture it constructs): the current test names the file.
inline std::string temp_path(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test =
      info != nullptr
          ? std::string(info->test_suite_name()) + "." + info->name()
          : std::string("no_test");
  // Parameterized suites and cases carry '/' in their names.
  std::replace(test.begin(), test.end(), '/', '_');
  return (std::filesystem::temp_directory_path() /
          ("rumor_" + std::to_string(::getpid()) + "_" + test + "_" + name))
      .string();
}

}  // namespace rumor::test
