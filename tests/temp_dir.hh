/**
 * @file
 * Hermetic scratch space for tests. ctest runs every gtest case in its
 * own process, so one fresh mkdtemp directory per process keeps cases
 * that run side by side under `ctest -j` from sharing — and clobbering
 * — each other's snapshot, dump and heartbeat files.
 */

#ifndef FIRESIM_TESTS_TEMP_DIR_HH
#define FIRESIM_TESTS_TEMP_DIR_HH

#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>
#include <unistd.h>

#include <gtest/gtest.h>

namespace firesim
{

/**
 * This process's private scratch directory, with a trailing '/'.
 * Created on first use under gtest's TempDir() and removed at exit by
 * the process that created it (a forked child leaves it in place).
 */
inline const std::string &
testTempDir()
{
    struct Dir
    {
        std::string path;
        pid_t owner = ::getpid();

        Dir()
        {
            std::string tmpl = ::testing::TempDir() + "firesim-XXXXXX";
            if (::mkdtemp(tmpl.data())) {
                path = tmpl + "/";
            } else {
                ADD_FAILURE() << "mkdtemp(" << tmpl << ") failed";
                path = ::testing::TempDir();
                owner = 0;
            }
        }

        ~Dir()
        {
            std::error_code ec;
            if (::getpid() == owner)
                std::filesystem::remove_all(path, ec);
        }
    };
    static Dir dir;
    return dir.path;
}

} // namespace firesim

#endif // FIRESIM_TESTS_TEMP_DIR_HH
