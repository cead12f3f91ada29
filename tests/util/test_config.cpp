#include <gtest/gtest.h>

#include <cstdlib>

#include "util/config.hpp"

namespace qplacer {
namespace {

TEST(Config, StringRoundTrip)
{
    Config c;
    c.set("key", "value");
    EXPECT_TRUE(c.has("key"));
    EXPECT_EQ(c.getString("key"), "value");
    EXPECT_EQ(c.getString("missing", "fallback"), "fallback");
}

TEST(Config, IntParsing)
{
    Config c;
    c.set("n", "42");
    EXPECT_EQ(c.getInt("n", 0), 42);
    EXPECT_EQ(c.getInt("missing", 7), 7);
    c.set("bad", "notanumber");
    EXPECT_THROW(c.getInt("bad", 0), std::runtime_error);
}

TEST(Config, DoubleParsing)
{
    Config c;
    c.set("x", "2.5");
    EXPECT_DOUBLE_EQ(c.getDouble("x", 0.0), 2.5);
    EXPECT_DOUBLE_EQ(c.getDouble("missing", 1.5), 1.5);
}

TEST(Config, BoolParsing)
{
    Config c;
    c.set("t", "true");
    c.set("f", "0");
    EXPECT_TRUE(c.getBool("t", false));
    EXPECT_FALSE(c.getBool("f", true));
    EXPECT_TRUE(c.getBool("missing", true));
    c.set("bad", "maybe");
    EXPECT_THROW(c.getBool("bad", false), std::runtime_error);
}

TEST(Config, RejectsNonFiniteAndOutOfIntRangeValues)
{
    Config c;
    c.set("nan", "nan");
    c.set("inf", "-inf");
    c.set("beyond_int", "4294967297");
    c.set("beyond_long_long", "99999999999999999999");
    c.set("int_max", "2147483647");
    EXPECT_THROW(c.getDouble("nan", 0.0), std::runtime_error);
    EXPECT_THROW(c.getDouble("inf", 0.0), std::runtime_error);
    EXPECT_THROW(c.getInt("beyond_int", 0), std::runtime_error);
    EXPECT_THROW(c.getInt("beyond_long_long", 0), std::runtime_error);
    EXPECT_EQ(c.getInt("int_max", 0), 2147483647);
}

TEST(Config, EnvOverrides)
{
    ::setenv("QP_TEST_ENV_INT", "123", 1);
    EXPECT_EQ(Config::envInt("QP_TEST_ENV_INT", 0), 123);
    ::unsetenv("QP_TEST_ENV_INT");
    EXPECT_EQ(Config::envInt("QP_TEST_ENV_INT", 55), 55);
}

TEST(Config, MalformedEnvFallsBack)
{
    ::setenv("QP_TEST_ENV_BAD", "zzz", 1);
    EXPECT_EQ(Config::envInt("QP_TEST_ENV_BAD", 9), 9);
    ::unsetenv("QP_TEST_ENV_BAD");
}

} // namespace
} // namespace qplacer
