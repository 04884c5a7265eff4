#ifndef SSQL_TESTS_TEST_TEMP_PATH_H_
#define SSQL_TESTS_TEST_TEMP_PATH_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace ssql {

/// A temp file path private to the running test: ctest -j runs every TEST
/// as its own process, so a fixed name shared by two tests lets one
/// process's rewrite or removal land in the other's scan. The test's full
/// name plus the pid keeps concurrent and repeated runs apart.
inline std::string TestTempPath(const std::string& file) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/" + info->test_suite_name() + "." +
         info->name() + "-" + std::to_string(::getpid()) + "-" + file;
}

}  // namespace ssql

#endif  // SSQL_TESTS_TEST_TEMP_PATH_H_
