#include "ntom/util/flags.hpp"

#include <gtest/gtest.h>

namespace ntom {
namespace {

flags make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return flags(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, EqualsSyntax) {
  const auto f = make({"--scale=paper", "--seed=99"});
  EXPECT_EQ(f.get_string("scale", "small"), "paper");
  EXPECT_EQ(f.get_int("seed", 0), 99);
}

TEST(FlagsTest, BareBooleanKeepsTheNextPositionals) {
  const auto f = make({"--out=m.trc", "--no-compress", "a.trc", "b.trc"});
  EXPECT_TRUE(f.get_bool("no-compress", false));
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "a.trc");
  EXPECT_EQ(f.positional()[1], "b.trc");
}

TEST(FlagsTest, NonNumericValueThrows) {
  // A stale space-separated `--seed 5` parses as a bare flag ("true").
  const auto f = make({"--seed", "5", "--frac=0.5x", "--n=", "--x=12"});
  EXPECT_THROW((void)f.get_int("seed", 0), flag_error);
  EXPECT_THROW((void)f.get_double("frac", 0.0), flag_error);
  EXPECT_THROW((void)f.get_int("n", 0), flag_error);
  EXPECT_EQ(f.get_int("x", 0), 12);
  EXPECT_DOUBLE_EQ(f.get_double("x", 0.0), 12.0);
  try {
    (void)f.get_int("seed", 0);
  } catch (const flag_error& err) {
    EXPECT_NE(std::string(err.what()).find("--seed"), std::string::npos);
  }
}

TEST(FlagsTest, BareFlagIsTrue) {
  const auto f = make({"--verbose"});
  EXPECT_TRUE(f.get_bool("verbose", false));
  EXPECT_TRUE(f.has("verbose"));
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  const auto f = make({});
  EXPECT_EQ(f.get_string("scale", "small"), "small");
  EXPECT_EQ(f.get_int("seed", 42), 42);
  EXPECT_DOUBLE_EQ(f.get_double("frac", 0.1), 0.1);
  EXPECT_FALSE(f.get_bool("verbose", false));
  EXPECT_FALSE(f.has("anything"));
}

TEST(FlagsTest, DoubleParsing) {
  const auto f = make({"--frac=0.25"});
  EXPECT_DOUBLE_EQ(f.get_double("frac", 0.0), 0.25);
}

TEST(FlagsTest, BoolRecognizesSpellings) {
  EXPECT_TRUE(make({"--a=true"}).get_bool("a", false));
  EXPECT_TRUE(make({"--a=1"}).get_bool("a", false));
  EXPECT_TRUE(make({"--a=yes"}).get_bool("a", false));
  EXPECT_FALSE(make({"--a=false"}).get_bool("a", true));
}

TEST(FlagsTest, PositionalArgumentsCollected) {
  const auto f = make({"input.txt", "--seed=1", "output.txt"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.txt");
  EXPECT_EQ(f.positional()[1], "output.txt");
}

TEST(FlagsTest, NamesListsSeenFlags) {
  const auto f = make({"--b=2", "--a=1"});
  const auto names = f.names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");  // std::map orders keys.
  EXPECT_EQ(names[1], "b");
}

TEST(FlagsTest, BareFlagFollowedByFlag) {
  const auto f = make({"--verbose", "--seed=3"});
  EXPECT_TRUE(f.get_bool("verbose", false));
  EXPECT_EQ(f.get_int("seed", 0), 3);
}

}  // namespace
}  // namespace ntom
