// The benchmark's workloads. Each generates its inputs from the seed,
// sets up (generation, reference answers, warm-up), measures for the
// requested time and fills the report; checks run outside timed regions.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>

#include "common.h"

namespace perfbench {

/// tc-path, graph-mixed and model-path: one job is ParseProgram plus one
/// engine call.
bool IsBatchWorkload(const std::string& name);
std::string BatchInputs(const Options& o);
void RunBatch(const Options& o, Report& report);

/// serve-mix: an in-process ReasoningServer under a mixed request stream.
std::string ServeMixInputs(const Options& o);
void RunServeMix(const Options& o, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
