#include "core/instance.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "util/error.hpp"

namespace pcmax {

namespace {

/// Leading token of the versioned wire format (satellite: wire-format v2).
constexpr const char* kWireV2Tag = "pcmax.instance.v2";

/// Parses a whole token as a base-10 integer of type Int. On failure the
/// error names the field, its 1-based position among `count` fields when
/// `position` is non-zero, and the token, e.g. "processing time 1 of 3:
/// '1e3' is not an integer".
template <typename Int>
Int integer_token(const std::string& token, const char* field,
                  std::size_t position = 0, std::size_t count = 0) {
  const char* last = token.data() + token.size();
  Int value{};
  const auto [end, ec] = std::from_chars(token.data(), last, value);
  if (ec == std::errc() && end == last) return value;
  std::string what = field;
  if (position != 0) {
    what += " " + std::to_string(position) + " of " + std::to_string(count);
  }
  const bool overflow = ec == std::errc::result_out_of_range && end == last;
  throw InvalidArgumentError(what + ": '" + token + "' is " +
                             (overflow ? "out of range" : "not an integer"));
}

}  // namespace

const char* variant_name(ProblemVariant variant) {
  switch (variant) {
    case ProblemVariant::kClassic: return "classic";
    case ProblemVariant::kCapacity: return "capacity";
    case ProblemVariant::kIncremental: return "incremental";
  }
  PCMAX_CHECK(false, "unknown ProblemVariant value");
  return "";  // unreachable
}

ProblemVariant variant_from_name(const std::string& name) {
  if (name == "classic") return ProblemVariant::kClassic;
  if (name == "capacity") return ProblemVariant::kCapacity;
  if (name == "incremental") return ProblemVariant::kIncremental;
  PCMAX_REQUIRE(false, "unknown problem variant '" + name +
                           "' (expected classic|capacity|incremental)");
  return ProblemVariant::kClassic;  // unreachable
}

Instance::Instance(int machines, std::vector<Time> processing_times)
    : Instance(machines, std::move(processing_times), ProblemVariant::kClassic,
               VariantPayload{}) {}

Instance::Instance(int machines, std::vector<Time> processing_times,
                   ProblemVariant variant, VariantPayload payload)
    : machines_(machines),
      times_(std::move(processing_times)),
      variant_(variant),
      payload_(payload) {
  PCMAX_REQUIRE(machines_ >= 1, "instance needs at least one machine");
  PCMAX_REQUIRE(!times_.empty(), "instance needs at least one job");
  if (variant_ == ProblemVariant::kCapacity) {
    PCMAX_REQUIRE(payload_.capacity >= 1,
                  "capacity-restricted instances need capacity B >= 1");
  } else {
    PCMAX_REQUIRE(payload_ == VariantPayload{},
                  std::string("variant '") + variant_name(variant_) +
                      "' takes no payload");
  }
  Time total = 0;
  Time maximum = 0;
  for (Time t : times_) {
    PCMAX_REQUIRE(t >= 1, "processing times must be positive integers");
    PCMAX_REQUIRE(total <= std::numeric_limits<Time>::max() - t,
                  "total processing time overflows");
    total += t;
    maximum = std::max(maximum, t);
  }
  total_time_ = total;
  max_time_ = maximum;
}

Instance Instance::capacity_restricted(int machines,
                                       std::vector<Time> processing_times,
                                       Time capacity) {
  return Instance(machines, std::move(processing_times),
                  ProblemVariant::kCapacity, VariantPayload{capacity});
}

Instance Instance::incremental(int machines,
                               std::vector<Time> processing_times) {
  return Instance(machines, std::move(processing_times),
                  ProblemVariant::kIncremental, VariantPayload{});
}

Instance Instance::with_variant(const Instance& base, ProblemVariant variant,
                                VariantPayload payload) {
  return Instance(base.machines_,
                  std::vector<Time>(base.times_.begin(), base.times_.end()),
                  variant, payload);
}

std::string Instance::to_string() const {
  std::ostringstream os;
  if (!is_classic()) {
    // Versioned form: `pcmax.instance.v2 <variant> [B] m n t_1 ... t_n`.
    // Classic instances stay on the legacy line so pre-variant files and
    // golden strings remain byte-identical.
    os << kWireV2Tag << ' ' << variant_name(variant_);
    if (variant_ == ProblemVariant::kCapacity) os << ' ' << payload_.capacity;
    os << ' ';
  }
  os << machines_ << ' ' << jobs();
  for (Time t : times_) os << ' ' << t;
  return os.str();
}

Instance Instance::parse(const std::string& text) {
  std::istringstream is(text);
  const std::vector<std::string> tokens{std::istream_iterator<std::string>(is),
                                        std::istream_iterator<std::string>()};
  std::size_t next = 0;
  ProblemVariant variant = ProblemVariant::kClassic;
  VariantPayload payload{};
  // The v2 header is the only non-numeric lead-in.
  if (!tokens.empty() && tokens[0] == kWireV2Tag) {
    PCMAX_REQUIRE(tokens.size() > 1,
                  "expected a variant name after 'pcmax.instance.v2'");
    variant = variant_from_name(tokens[1]);
    next = 2;
    if (variant == ProblemVariant::kCapacity) {
      PCMAX_REQUIRE(next < tokens.size(), "expected capacity B after 'capacity'");
      payload.capacity = integer_token<Time>(tokens[next++], "capacity B");
    }
  }
  PCMAX_REQUIRE(next < tokens.size(),
                "missing machine count m (expected 'm n t_1 ... t_n')");
  const int m = integer_token<int>(tokens[next++], "machine count m");
  PCMAX_REQUIRE(next < tokens.size(), "missing job count n after m = " +
                                          std::to_string(m));
  const int n = integer_token<int>(tokens[next++], "job count n");
  PCMAX_REQUIRE(n >= 1, "job count must be positive");
  const std::size_t given = tokens.size() - next;
  const auto expected = static_cast<std::size_t>(n);
  PCMAX_REQUIRE(given >= expected,
                "missing processing time " + std::to_string(given + 1) +
                    " of " + std::to_string(n));
  PCMAX_REQUIRE(given == expected,
                "trailing token '" + tokens[next + expected] + "' after " +
                    std::to_string(n) + " processing times");
  std::vector<Time> times;
  times.reserve(expected);
  for (std::size_t j = 0; j < expected; ++j) {
    times.push_back(integer_token<Time>(tokens[next + j], "processing time",
                                        j + 1, expected));
  }
  return Instance(m, std::move(times), variant, payload);
}

std::ostream& operator<<(std::ostream& os, const Instance& instance) {
  return os << instance.to_string();
}

}  // namespace pcmax
