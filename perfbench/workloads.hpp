// workloads.hpp — the three perfbench workloads. Each entry point starts
// its system cold, times the first op (setup_s), then times warm ops for
// Args::seconds (optionally traced) and fills the Result.
#pragma once

#include "common.hpp"

namespace perfbench {

void runWcLight(const Args& args, Result& out);
void runScripts(const Args& args, Result& out);
void runServe(const Args& args, Result& out);

/// Shared tail of every run: the pool thread count and, for untraced
/// runs, the check that metrics were never enabled in this process.
void recordProcessStats(const Args& args, Result& out);

}  // namespace perfbench
