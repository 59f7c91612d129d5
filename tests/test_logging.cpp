/** Unit tests for error reporting. */

#include <gtest/gtest.h>

#include "sim/logging.hh"

using namespace gpump;
using namespace gpump::sim;

TEST(Logging, StrformatFormats)
{
    EXPECT_EQ(strformat("x=%d y=%s", 42, "ok"), "x=42 y=ok");
    EXPECT_EQ(strformat("%.2f", 1.239), "1.24");
    EXPECT_EQ(strformat("plain"), "plain");
}

TEST(Logging, FatalThrowsFatalError)
{
    try {
        fatal("bad input %d", 7);
        FAIL() << "fatal did not throw";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "bad input 7");
    }
}

TEST(Logging, PanicThrowsPanicError)
{
    try {
        panic("invariant %s broken", "X");
        FAIL() << "panic did not throw";
    } catch (const PanicError &e) {
        EXPECT_STREQ(e.what(), "invariant X broken");
    }
}

TEST(Logging, PanicIsNotFatal)
{
    // The two error kinds are distinct: tests and callers can tell
    // user errors from simulator bugs.
    EXPECT_THROW(panic("x"), PanicError);
    EXPECT_THROW(fatal("x"), FatalError);
    bool caught_wrong = false;
    try {
        panic("x");
    } catch (const FatalError &) {
        caught_wrong = true;
    } catch (const PanicError &) {
    }
    EXPECT_FALSE(caught_wrong);
}

TEST(Logging, AssertMacro)
{
    EXPECT_NO_THROW(GPUMP_ASSERT(1 + 1 == 2, "math works"));
    EXPECT_THROW(GPUMP_ASSERT(false, "must fire"), PanicError);
}
