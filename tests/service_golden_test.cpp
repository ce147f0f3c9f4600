// Golden-file test of the pcmax.batch.v1 report schema.
//
// The report is built from a fixed single-worker batch (two unique problems
// plus one permuted duplicate), with every wall-clock field scrubbed to
// zero, so the dump is bit-stable: key order is pinned by util/json's
// insertion-ordered objects, fingerprints are platform-stable by
// construction, and the solver is deterministic in canonical space.
//
// Regenerate after an INTENTIONAL schema change with:
//   PCMAX_UPDATE_GOLDEN=1 ./service_golden_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "service/batch_report.hpp"
#include "service/solve_service.hpp"

namespace pcmax {
namespace {

const char* kGoldenPath = PCMAX_SOURCE_DIR "/tests/golden/pcmax_batch_v1.json";

TEST(ServiceGolden, BatchReportMatchesGoldenFile) {
  ServiceOptions options;
  options.workers = 1;  // deterministic hit/miss sequence
  options.cache_capacity = 8;
  options.epsilon = 0.3;
  std::vector<SolveRequest> batch;
  batch.push_back(SolveRequest{Instance(3, {4, 8, 15, 16, 23, 42})});
  batch.push_back(SolveRequest{Instance(2, {5, 5, 5, 7, 9, 9})});
  // Permuted duplicate of the first request: must be the one cache hit.
  batch.push_back(SolveRequest{Instance(3, {42, 23, 16, 15, 8, 4})});

  std::vector<SolveResponse> responses;
  ServiceStats stats;
  {
    SolveService service(options);
    // The duplicate is submitted once the first response has landed, so it
    // is a cache hit; submitted while the first is in flight, it would
    // attach to it instead, and the report would depend on timing.
    SolveFuture first = service.submit_async(std::move(batch[0]));
    SolveFuture second = service.submit_async(std::move(batch[1]));
    responses.push_back(first.get());
    SolveFuture duplicate = service.submit_async(std::move(batch[2]));
    responses.push_back(second.get());
    responses.push_back(duplicate.get());
    stats = service.stats();
  }
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_FALSE(responses[0].cache_hit);
  EXPECT_FALSE(responses[1].cache_hit);
  EXPECT_TRUE(responses[2].cache_hit);

  // Scrub everything wall-clock-dependent; all remaining fields are pure
  // functions of the problems.
  for (SolveResponse& response : responses) {
    response.queue_seconds = 0.0;
    response.solve_seconds = 0.0;
    response.seconds = 0.0;
  }
  stats.queue_high_watermark = 0;
  const JsonValue report = batch_report(options, responses, stats,
                                        /*total_seconds=*/0.0);
  const std::string actual = report.dump(/*pretty=*/true) + "\n";

  if (std::getenv("PCMAX_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath);
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
    out << actual;
    GTEST_SKIP() << "golden file regenerated at " << kGoldenPath;
  }

  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in.good()) << "missing golden file " << kGoldenPath
                         << " — regenerate with PCMAX_UPDATE_GOLDEN=1";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "pcmax.batch.v1 drifted from the golden file. If the schema change "
         "is intentional, regenerate with PCMAX_UPDATE_GOLDEN=1 and update "
         "docs/service.md.";

  // Belt and braces: the golden file itself must stay well-formed JSON with
  // the pinned schema tag.
  const JsonValue parsed = JsonValue::parse(expected.str());
  EXPECT_EQ(parsed.at("schema").as_string(), "pcmax.batch.v1");
  EXPECT_EQ(parsed.at("summary").at("cache_hits").as_int(), 1);
  EXPECT_EQ(parsed.at("requests").size(), 3u);
}

}  // namespace
}  // namespace pcmax
