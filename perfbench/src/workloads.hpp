#pragma once

// The benchmark's four workloads. Each runs whole, seeded work units
// (a campaign, a service session mix, a batch of failure-analysis
// queries) until `seconds` of measured time have passed, checks every
// output, and fills a Result. A non-null tracer makes the pass traced:
// every timed library call also records a wall-clock span.

#include "harness.hpp"

namespace perfbench {

Result run_campaign_host(const Options& opt, double seconds,
                         ndpcr::obs::Tracer* tracer);
Result run_campaign_ndp(const Options& opt, double seconds,
                        ndpcr::obs::Tracer* tracer);
Result run_service_mix(const Options& opt, double seconds,
                       ndpcr::obs::Tracer* tracer);
Result run_failure_sim(const Options& opt, double seconds,
                       ndpcr::obs::Tracer* tracer);

}  // namespace perfbench
