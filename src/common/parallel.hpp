// One-shot fan-out of independent tasks over threads.
//
// The simulator itself is serial; only whole runs fan out: sweep points
// (exp::run_grid, --jobs) and the measured windows of a sampled run
// (ckpt::run_sampled).  Both hand every task its own state and write
// results into a pre-sized slot per index, so execution order never
// reaches an artifact.
#pragma once

#include <cstddef>
#include <functional>

namespace latdiv {

/// Run fn(i) once for every i in [0, tasks) on min(jobs, tasks) threads,
/// the calling thread included; jobs <= 1 runs every task on the caller
/// and spawns no thread.  Threads claim indices from a shared atomic
/// counter, so any thread may run any index.  Returns once every task has
/// finished.  If a task throws, the remaining unclaimed indices are
/// skipped and the first exception is rethrown on the caller.  Returns
/// the number of threads used, the caller included: 0 when tasks == 0,
/// fewer than min(jobs, tasks) only if the host refused to start a
/// thread.
unsigned parallel_for(std::size_t tasks, unsigned jobs,
                      const std::function<void(std::size_t)>& fn);

}  // namespace latdiv
