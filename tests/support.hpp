/**
 * @file
 * Helpers shared by the test suites.
 */
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "serve/json.hpp"

namespace teaal::test
{

/**
 * A scratch directory private to the running test case, emptied on
 * creation and removed on destruction. The name joins @p prefix, the
 * test suite, the test name and the process id: `ctest -j` runs every
 * case in its own process, so concurrent cases (and two build trees
 * on one host) never share a directory.
 */
class TempDir
{
  public:
    explicit TempDir(const std::string& prefix = "teaal")
    {
        const auto* info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        std::string name = prefix + "_" + info->test_suite_name() + "_" +
                           info->name() + "_" +
                           std::to_string(::getpid());
        // Parameterized cases are named "Prefix/Suite" and "Test/0".
        std::replace(name.begin(), name.end(), '/', '_');
        dir_ = std::filesystem::temp_directory_path() / name;
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }

    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    TempDir(const TempDir&) = delete;
    TempDir& operator=(const TempDir&) = delete;

    const std::filesystem::path& dir() const { return dir_; }

    std::string str() const { return dir_.string(); }

    std::string
    path(const std::string& file) const
    {
        return (dir_ / file).string();
    }

  private:
    std::filesystem::path dir_;
};

/**
 * Member @p key of the JSON object @p r. A missing member fails the
 * test with the whole of @p r and ends it with an exception, instead
 * of dereferencing null.
 */
inline const serve::Json&
field(const serve::Json& r, const std::string& key)
{
    if (const serve::Json* v = r.find(key))
        return *v;
    ADD_FAILURE() << "no \"" << key << "\" in " << r.dump();
    throw std::runtime_error("missing JSON member '" + key + "'");
}

} // namespace teaal::test
