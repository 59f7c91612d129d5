/**
 * End-to-end runs of every examples/ binary.
 *
 * The build injects GPUMP_EXAMPLES_BINDIR (directory holding the
 * example_<name> binaries) and GPUMP_EXAMPLE_LIST (comma-separated
 * example names).  Each example must run to completion and exit 0;
 * this keeps the examples from silently rotting as the simulator
 * evolves.  Each must also refuse a flag it does not read, and a
 * config key nothing reads, with a `fatal:` line and exit status 1,
 * the way every bench and example reports a fatal error.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
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
    /** Run the example with @p args through the shell; returns its
     *  exit status, or -1 (a test failure) when it did not exit. */
    int run(const std::string &args) const
    {
        const std::string binary =
            std::string(GPUMP_EXAMPLES_BINDIR) + "/example_" + GetParam();
        // Quote the path: the build tree may live under a directory
        // with spaces, and std::system goes through the shell.
        const std::string command = "\"" + binary + "\"" + args;
        const int status = std::system(command.c_str());
        if (status == -1 || !WIFEXITED(status)) {
            ADD_FAILURE() << GetParam() << " terminated abnormally "
                          << "(status " << status << ")";
            return -1;
        }
        return WEXITSTATUS(status);
    }

    /** Run the example with @p arg: it must print `fatal: @p message`
     *  on stderr and exit 1, not die of an uncaught exception
     *  (SIGABRT). */
    void expectFatal(const std::string &arg, const std::string &message) const
    {
        const std::string err =
            ::testing::TempDir() + "example_" + GetParam() + ".stderr";
        EXPECT_EQ(run(" " + arg + " > /dev/null 2> \"" + err + "\""), 1)
            << GetParam();
        std::stringstream text;
        text << std::ifstream(err).rdbuf();
        std::remove(err.c_str());
        EXPECT_NE(text.str().find("fatal: " + message), std::string::npos)
            << GetParam() << ": " << text.str();
    }
};

TEST_P(RunExample, ExitsZero)
{
    EXPECT_EQ(run(""), 0) << GetParam() << " exited non-zero";
}

TEST_P(RunExample, UnknownFlagExitsOne)
{
    expectFatal("--no-such-flag", "unknown flag --no-such-flag");
}

TEST_P(RunExample, MisspelledKeyExitsOne)
{
    // Every example assembles its machine through workload::Device,
    // which rejects a key nothing read and names the nearest one.
    expectFatal("gpu.num_smz=208", "unknown config key 'gpu.num_smz'; "
                                   "did you mean 'gpu.num_sms'?");
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
