#include "core/instance.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "util/error.hpp"

namespace pcmax {
namespace {

TEST(Instance, StoresJobsAndMachines) {
  const Instance instance(3, {5, 2, 9, 1});
  EXPECT_EQ(instance.machines(), 3);
  EXPECT_EQ(instance.jobs(), 4);
  EXPECT_EQ(instance.time(0), 5);
  EXPECT_EQ(instance.time(3), 1);
  EXPECT_EQ(instance.total_time(), 17);
  EXPECT_EQ(instance.max_time(), 9);
}

TEST(Instance, TimesSpanMatchesInput) {
  const Instance instance(1, {4, 4, 4});
  const auto times = instance.times();
  ASSERT_EQ(times.size(), 3u);
  for (Time t : times) EXPECT_EQ(t, 4);
}

TEST(Instance, RejectsInvalidInputs) {
  EXPECT_THROW(Instance(0, {1}), InvalidArgumentError);
  EXPECT_THROW(Instance(-1, {1}), InvalidArgumentError);
  EXPECT_THROW(Instance(1, {}), InvalidArgumentError);
  EXPECT_THROW(Instance(1, {0}), InvalidArgumentError);
  EXPECT_THROW(Instance(1, {5, -2}), InvalidArgumentError);
}

TEST(Instance, RejectsTotalTimeOverflow) {
  const Time huge = std::numeric_limits<Time>::max() / 2 + 1;
  EXPECT_THROW(Instance(1, {huge, huge}), InvalidArgumentError);
}

TEST(Instance, ToStringAndParseRoundTrip) {
  const Instance original(4, {10, 20, 30});
  const Instance parsed = Instance::parse(original.to_string());
  EXPECT_EQ(parsed, original);
}

TEST(Instance, ParseAcceptsCanonicalFormat) {
  const Instance instance = Instance::parse("2 3 7 8 9");
  EXPECT_EQ(instance.machines(), 2);
  EXPECT_EQ(instance.jobs(), 3);
  EXPECT_EQ(instance.time(2), 9);
}

TEST(Instance, ParseRejectsMalformedInput) {
  // Each error names the offending token and its position.
  const struct {
    const char* text;
    const char* message;
  } cases[] = {
      {"", "missing machine count m"},
      {"2", "missing job count n after m = 2"},
      {"2 3 1 2", "missing processing time 3 of 3"},
      {"2 2 1 2 3", "trailing token '3' after 2 processing times"},
      {"2 0", "job count must be positive"},
      {"x y z", "machine count m: 'x' is not an integer"},
      {"2 3 1e3 2 3", "processing time 1 of 3: '1e3' is not an integer"},
      {"2 3 1 2 3.5", "processing time 3 of 3: '3.5' is not an integer"},
      {"2 3x 1 2 3", "job count n: '3x' is not an integer"},
      {"2.5 3 1 2 3", "machine count m: '2.5' is not an integer"},
      {"2 1 99999999999999999999",
       "processing time 1 of 1: '99999999999999999999' is out of range"},
      {"9999999999 1 5", "machine count m: '9999999999' is out of range"},
      {"pcmax.instance.v2 capacity B 2 1 5",
       "capacity B: 'B' is not an integer"},
      {"0 1 5", "machine"},  // m = 0 is rejected by the constructor
  };
  for (const auto& c : cases) {
    try {
      (void)Instance::parse(c.text);
      ADD_FAILURE() << "accepted '" << c.text << "'";
    } catch (const InvalidArgumentError& error) {
      EXPECT_NE(std::string(error.what()).find(c.message), std::string::npos)
          << "input '" << c.text << "': got '" << error.what() << "'";
    }
  }
}

TEST(Instance, VersionedWireFormatRoundTrips) {
  // Classic instances stay on the legacy "m n t..." line forever; variant
  // instances serialize to the self-describing pcmax.instance.v2 form and
  // parse() accepts both. (Golden strings pinned in core_variant_test.)
  EXPECT_EQ(Instance(2, {3, 4}).to_string(), "2 2 3 4");
  const Instance capped = Instance::capacity_restricted(3, {5, 6, 7}, 2);
  const Instance incremental = Instance::incremental(2, {8, 9});
  EXPECT_EQ(Instance::parse(capped.to_string()), capped);
  EXPECT_EQ(Instance::parse(incremental.to_string()), incremental);
  // A v2 line that spells out "classic" parses to a plain instance too.
  EXPECT_EQ(Instance::parse("pcmax.instance.v2 classic 2 2 3 4"),
            Instance(2, {3, 4}));
  EXPECT_THROW((void)Instance::parse("pcmax.instance.v3 classic 2 2 3 4"),
               InvalidArgumentError);
}

TEST(Instance, StreamOutputMatchesToString) {
  const Instance instance(2, {3, 4});
  std::ostringstream os;
  os << instance;
  EXPECT_EQ(os.str(), instance.to_string());
  EXPECT_EQ(os.str(), "2 2 3 4");
}

TEST(Instance, EqualityComparesMachinesAndTimes) {
  EXPECT_EQ(Instance(2, {1, 2}), Instance(2, {1, 2}));
  EXPECT_NE(Instance(2, {1, 2}), Instance(3, {1, 2}));
  EXPECT_NE(Instance(2, {1, 2}), Instance(2, {2, 1}));
}

}  // namespace
}  // namespace pcmax
