// Unit tests of the benchmark's own helpers (statistics, oracle, HTTP
// parsing). Every run executes them first; `--selftest` runs them alone.
#pragma once

namespace perfbench {

/// Runs every check, reports failures on stderr; true when all pass.
bool run_selftest();

}  // namespace perfbench
