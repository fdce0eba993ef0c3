#pragma once

// Per-test-case scratch directories. ctest runs every gtest case as its own
// process, so two cases that write the same fixed file name race under
// `ctest -j`; every file a test writes goes through a CaseDir instead.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace pushpull::testing_util {

/// A directory private to the running test case,
/// `<testing::TempDir()>/<suite>.<name>.<pid>`, created on construction and
/// removed with its contents on destruction.
class CaseDir {
 public:
  CaseDir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string leaf = info != nullptr ? std::string(info->test_suite_name()) +
                                             "." + info->name()
                                       : std::string("no_test");
    for (char& c : leaf) {
      if (c == '/') c = '_';  // parameterized names
    }
    dir_ = ::testing::TempDir() + leaf + "." + std::to_string(::getpid());
    std::filesystem::create_directories(dir_);
  }
  ~CaseDir() {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }
  CaseDir(const CaseDir&) = delete;
  CaseDir& operator=(const CaseDir&) = delete;

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  /// Path of `name` inside the directory.
  [[nodiscard]] std::string path(const std::string& name) const {
    return dir_ + "/" + name;
  }

 private:
  std::string dir_;
};

}  // namespace pushpull::testing_util
