/**
 * End-to-end runs of every examples/ binary.
 *
 * The build injects GPUMP_EXAMPLES_BINDIR (directory holding the
 * example_<name> binaries) and GPUMP_EXAMPLE_LIST (comma-separated
 * example names).  Each example must run to completion and exit 0;
 * this keeps the examples from silently rotting as the simulator
 * evolves.  Each must also refuse a flag it does not read with exit
 * status 1, the way every bench and example reports a fatal error.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#ifndef GPUMP_EXAMPLE_LIST
#error "build must define GPUMP_EXAMPLE_LIST"
#endif
#ifndef GPUMP_EXAMPLES_BINDIR
#error "build must define GPUMP_EXAMPLES_BINDIR"
#endif

namespace {

std::vector<std::string>
exampleNames()
{
    std::vector<std::string> names;
    std::stringstream ss(GPUMP_EXAMPLE_LIST);
    std::string name;
    while (std::getline(ss, name, ','))
        if (!name.empty())
            names.push_back(name);
    return names;
}

class RunExample : public ::testing::TestWithParam<std::string>
{
  protected:
    /** Run the example with @p args through the shell; returns the
     *  std::system status. */
    int run(const std::string &args) const
    {
        const std::string binary =
            std::string(GPUMP_EXAMPLES_BINDIR) + "/example_" + GetParam();
        // Quote the path: the build tree may live under a directory
        // with spaces, and std::system goes through the shell.
        const std::string command = "\"" + binary + "\"" + args;
        const int status = std::system(command.c_str());
        EXPECT_NE(status, -1) << "failed to spawn " << binary;
        return status;
    }
};

TEST_P(RunExample, ExitsZero)
{
    const int status = run("");
#ifdef WIFEXITED
    ASSERT_TRUE(WIFEXITED(status))
        << GetParam() << " terminated abnormally (status " << status
        << ")";
    EXPECT_EQ(WEXITSTATUS(status), 0) << GetParam() << " exited non-zero";
#else
    EXPECT_EQ(status, 0) << GetParam() << " exited non-zero";
#endif
}

TEST_P(RunExample, UnknownFlagExitsOne)
{
    // The flag is a sim::FatalError: the example prints it and exits
    // 1 instead of dying of an uncaught exception (SIGABRT).
    const int status = run(" --no-such-flag 2> /dev/null");
#ifdef WIFEXITED
    ASSERT_TRUE(WIFEXITED(status))
        << GetParam() << " terminated abnormally (status " << status
        << ")";
    EXPECT_EQ(WEXITSTATUS(status), 1) << GetParam();
#else
    EXPECT_NE(status, 0) << GetParam();
#endif
}

INSTANTIATE_TEST_SUITE_P(Examples, RunExample,
                         ::testing::ValuesIn(exampleNames()),
                         [](const auto &info) { return info.param; });

} // namespace

// ValuesIn on an empty list would make the suite vacuous; fail loudly
// instead if the build wired up no examples.
TEST(RunExampleSetup, AtLeastOneExampleConfigured)
{
    EXPECT_FALSE(exampleNames().empty());
}
