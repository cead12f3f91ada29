/**
 * @file
 * A per-test scratch path under the system temp directory. ctest runs
 * every gtest case as its own process, often several at once, so a
 * case that writes a file needs a name no other case (nor another run
 * of the same case) shares: the path carries the suite name, the case
 * name and the process id. It does not exist on construction and is
 * removed, recursively, on destruction.
 */

#ifndef QPLACER_TESTS_SCRATCH_PATH_HPP
#define QPLACER_TESTS_SCRATCH_PATH_HPP

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

namespace qplacer {

struct ScratchPath
{
    /** @param suffix Appended to the name (a file extension, say). */
    explicit ScratchPath(const std::string &suffix = "")
    {
        const ::testing::TestInfo *test =
            ::testing::UnitTest::GetInstance()->current_test_info();
        std::string name = std::string("qplacer_") + test->test_suite_name();
        name += '_';
        name += test->name();
        name += '_';
        name += std::to_string(::getpid());
        name += suffix;
        // Parameterized names carry '/' (Prefix/Suite.Case/0).
        std::replace(name.begin(), name.end(), '/', '_');
        path = (std::filesystem::temp_directory_path() / name).string();
        std::filesystem::remove_all(path);
    }
    ~ScratchPath()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
    ScratchPath(const ScratchPath &) = delete;
    ScratchPath &operator=(const ScratchPath &) = delete;

    std::string path;
};

} // namespace qplacer

#endif // QPLACER_TESTS_SCRATCH_PATH_HPP
