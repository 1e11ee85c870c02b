/**
 * @file
 * Helpers shared by the test suites.
 */
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/json.hpp"
#include "trace/batch.hpp"
#include "trace/observer.hpp"

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

/**
 * Records the delivered trace as a flat string log: one `batch:N`
 * line per batch, then one line per record with its kind tag and
 * pointer-free fields. Two runs that deliver the same events in the
 * same batches produce equal logs. Pointer, packed and mapped inputs
 * differ only in the identity fields (`ptr`, `payload`, `packed`, and
 * the packed position in `a`), which are left out, so equal logs
 * mean equal streams across storage paths.
 */
class BatchRecorder : public trace::Observer
{
  public:
    std::vector<std::string> log;

    void
    onEventBatch(const trace::EventBatch& batch) override
    {
        log.push_back("batch:" + std::to_string(batch.size()));
        for (const trace::Event& e : batch.events)
            record(e);
    }

  private:
    void
    record(const trace::Event& e)
    {
        using K = trace::Event::Kind;
        switch (e.kind) {
          case K::LoopEnter:
            add("L", e.loop, e.coord);
            break;
          case K::CoIterate:
            add("I", e.loop, e.a, e.b, e.c, e.pe);
            break;
          case K::CoordScan:
            add("S", e.input, e.level, e.a, e.pe);
            break;
          case K::TensorAccess:
            add("A", e.input, e.level, e.coord, e.pe, *e.name);
            break;
          case K::OutputWrite:
            add("W", e.level, e.coord, e.key, e.flagA, e.flagB, e.pe,
                *e.name);
            break;
          case K::Compute:
            add("C", e.op, e.pe, e.a);
            break;
          case K::Swizzle:
            add("Z", e.a, e.b, e.flagA, *e.name);
            break;
          case K::TensorCopy:
            add("Y", e.a, *e.name + ">" + *e.name2);
            break;
        }
    }

    template <typename... Args>
    void
    add(const char* tag, const Args&... args)
    {
        std::ostringstream os;
        os << tag;
        ((os << ':' << args), ...);
        log.push_back(os.str());
    }
};

} // namespace teaal::test
