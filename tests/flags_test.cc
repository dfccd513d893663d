#include "tools/flags.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/overload_flags.h"

namespace faas {
namespace {

// Builds argv from string literals (argv[0] is the program name).
class ArgvBuilder {
 public:
  explicit ArgvBuilder(std::vector<std::string> args)
      : storage_(std::move(args)) {
    pointers_.push_back(const_cast<char*>("test_binary"));
    for (std::string& arg : storage_) {
      pointers_.push_back(arg.data());
    }
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
};

TEST(FlagParserTest, EqualsSyntax) {
  ArgvBuilder args({"--apps=100", "--out=/tmp/x"});
  FlagParser flags;
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()));
  EXPECT_EQ(flags.GetInt("apps", 0), 100);
  EXPECT_EQ(flags.GetString("out", ""), "/tmp/x");
}

TEST(FlagParserTest, SpaceSyntax) {
  ArgvBuilder args({"--apps", "250", "--trace", "dir"});
  FlagParser flags;
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()));
  EXPECT_EQ(flags.GetInt("apps", 0), 250);
  EXPECT_EQ(flags.GetString("trace", ""), "dir");
}

TEST(FlagParserTest, BareBooleanFlag) {
  ArgvBuilder args({"--use-exec-times", "--weight-by-memory"});
  FlagParser flags;
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()));
  EXPECT_TRUE(flags.GetBool("use-exec-times", false));
  EXPECT_TRUE(flags.GetBool("weight-by-memory", false));
  EXPECT_FALSE(flags.GetBool("absent", false));
}

TEST(FlagParserTest, BooleanBeforeAnotherFlag) {
  ArgvBuilder args({"--verbose", "--apps", "5"});
  FlagParser flags;
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()));
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_EQ(flags.GetInt("apps", 0), 5);
}

TEST(FlagParserTest, DefaultsWhenAbsentOrMalformed) {
  ArgvBuilder args({"--rate=abc"});
  FlagParser flags;
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()));
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate", 7.5), 7.5);
  EXPECT_EQ(flags.GetInt("missing", 42), 42);
  EXPECT_EQ(flags.GetString("missing", "dflt"), "dflt");
}

TEST(FlagParserTest, DoubleParsing) {
  ArgvBuilder args({"--cap", "1250.5"});
  FlagParser flags;
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()));
  EXPECT_DOUBLE_EQ(flags.GetDouble("cap", 0.0), 1250.5);
}

TEST(FlagParserTest, RejectsPositionalArguments) {
  ArgvBuilder args({"stray"});
  FlagParser flags;
  EXPECT_FALSE(flags.Parse(args.argc(), args.argv()));
}

TEST(FlagParserTest, HasReportsPresence) {
  ArgvBuilder args({"--trace=dir"});
  FlagParser flags;
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()));
  EXPECT_TRUE(flags.Has("trace"));
  EXPECT_FALSE(flags.Has("out"));
}

TEST(FlagParserTest, LastValueWins) {
  ArgvBuilder args({"--apps=1", "--apps=2"});
  FlagParser flags;
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()));
  EXPECT_EQ(flags.GetInt("apps", 0), 2);
}

TEST(FlagParserTest, ReportsFlagsNeverRead) {
  // A renamed flag (serve's old --hedge-ms) must not be silently ignored.
  ArgvBuilder args({"--apps", "5", "--hedge-ms", "10", "--verbose"});
  FlagParser flags;
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()));
  EXPECT_EQ(flags.GetInt("apps", 0), 5);
  EXPECT_TRUE(flags.Has("verbose"));
  EXPECT_FALSE(flags.Has("absent"));  // Asking about absent flags is fine.
  EXPECT_FALSE(flags.CheckAllRead());
  flags.GetInt("hedge-ms", 0);
  EXPECT_TRUE(flags.CheckAllRead());
}

bool ParseOverload(std::vector<std::string> argv,
                   OverloadControlConfig* config) {
  ArgvBuilder args(std::move(argv));
  FlagParser flags;
  return flags.Parse(args.argc(), args.argv()) &&
         ParseOverloadFlags(flags, config) && flags.CheckAllRead();
}

TEST(OverloadFlagsTest, RejectsOutOfRangeKnobs) {
  OverloadControlConfig config;
  EXPECT_FALSE(ParseOverload({"--hedge-percentile", "150"}, &config));
  config = {};
  EXPECT_FALSE(ParseOverload({"--admission-queue", "-5"}, &config));
  config = {};
  EXPECT_FALSE(ParseOverload({"--breaker-window", "0"}, &config));
  config = {};
  EXPECT_FALSE(ParseOverload({"--admission-discipline", "random"}, &config));
  config = {};
  EXPECT_FALSE(ParseOverload({"--hedge", "soon"}, &config));
}

TEST(OverloadFlagsTest, OneSpellingPerKnobWithDurationSuffixes) {
  OverloadControlConfig config;
  ASSERT_TRUE(ParseOverload(
      {"--hedge", "5ms", "--queue-max-wait", "2s", "--concurrency-cap", "8",
       "--admission-queue", "64", "--admission-discipline", "lifo"},
      &config));
  EXPECT_EQ(config.hedge.after, Duration::Millis(5));
  EXPECT_EQ(config.admission.max_wait, Duration::Seconds(2));
  EXPECT_EQ(config.invoker_concurrency_cap, 8);
  EXPECT_EQ(config.admission.capacity, 64);
  EXPECT_EQ(config.admission.discipline, AdmissionDiscipline::kLifo);
  EXPECT_FALSE(config.breaker.enabled);

  // --breaker-open alone turns the breakers on.
  config = {};
  ASSERT_TRUE(ParseOverload({"--breaker-open", "250ms"}, &config));
  EXPECT_TRUE(config.breaker.enabled);
  EXPECT_EQ(config.breaker.open_duration, Duration::Millis(250));

  // The spellings serve used to take are unknown now.
  config = {};
  EXPECT_FALSE(ParseOverload({"--cap", "8"}, &config));
  EXPECT_FALSE(ParseOverload({"--breaker-open-ms", "250"}, &config));
}

}  // namespace
}  // namespace faas
