// The fixed-batch serving contract, checked on one server's report.
//
// Server::Serve is ServeLoad over a load::BatchWorkload with one request in
// flight per stream, so on every server that serves a batch (standalone or
// as one device of a cluster):
//   * every arrival finds a free stream: nothing queues or sheds, each
//     request is offered once and admitted immediately;
//   * a request arrives the moment it starts, so queue_ms == 0 and
//     e2e_ms == latency_ms;
//   * requests start in request-id (batch) order, each on the
//     lowest-numbered stream whose previous query has finished.
#ifndef TILECOMP_TESTS_FIXED_BATCH_CONTRACT_H_
#define TILECOMP_TESTS_FIXED_BATCH_CONTRACT_H_

#include <cstddef>
#include <vector>

#include "gtest/gtest.h"
#include "serve/server.h"

namespace tilecomp::serve {

inline void ExpectFixedBatchContract(const ServeReport& report,
                                     size_t num_streams) {
  const size_t n = report.queries.size();
  EXPECT_EQ(report.shed_queries, 0u);
  EXPECT_EQ(report.admission.offered, n);
  EXPECT_EQ(report.admission.admitted_immediately, n);
  EXPECT_EQ(report.admission.queued, 0u);
  EXPECT_EQ(report.admission.shed, 0u);
  EXPECT_DOUBLE_EQ(report.p50_e2e_ms, report.p50_latency_ms);
  EXPECT_DOUBLE_EQ(report.p99_e2e_ms, report.p99_latency_ms);
  if (n == 0) return;

  // Stream handles are created consecutively, and the first request always
  // takes the lowest one.
  const int first_stream = report.queries[0].stream;
  std::vector<double> free_at(num_streams, 0.0);  // last finish per stream
  for (size_t i = 0; i < n; ++i) {
    const ServedQuery& sq = report.queries[i];
    if (i > 0) {
      EXPECT_GT(sq.request_id, report.queries[i - 1].request_id);
    }
    EXPECT_NE(sq.status, QueryStatus::kShed);
    EXPECT_EQ(sq.queue_ms, 0.0) << "request " << sq.request_id;
    EXPECT_DOUBLE_EQ(sq.arrival_ms, sq.admit_ms) << "request " << sq.request_id;
    EXPECT_DOUBLE_EQ(sq.e2e_ms, sq.latency_ms) << "request " << sq.request_id;
    // A stream is free at the arrival if its last query finished by then
    // (completions at the arrival instant free their slot first).
    size_t lowest_free = num_streams;
    for (size_t s = 0; s < num_streams; ++s) {
      if (free_at[s] <= sq.arrival_ms) {
        lowest_free = s;
        break;
      }
    }
    ASSERT_LT(lowest_free, num_streams)
        << "request " << sq.request_id << " arrived with no free stream";
    EXPECT_EQ(sq.stream, first_stream + static_cast<int>(lowest_free))
        << "request " << sq.request_id;
    free_at[lowest_free] = sq.finish_ms;
  }
}

}  // namespace tilecomp::serve

#endif  // TILECOMP_TESTS_FIXED_BATCH_CONTRACT_H_
