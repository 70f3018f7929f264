// The three workloads, one per user path. `prepare_*` writes the seeded
// inputs into Options::dir in a separate process; `run_*` reads only
// those files, measures, checks outputs and fills the report.
#pragma once

#include "common.hpp"

namespace perfbench {

void prepare_plan(const Options& options);
void run_plan(const Options& options, Report& report);

void prepare_spread(const Options& options);
void run_spread(const Options& options, Report& report);

void prepare_serve(const Options& options);
void run_serve(const Options& options, Report& report);

}  // namespace perfbench
