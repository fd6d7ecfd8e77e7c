#pragma once

/// \file workloads.h
/// The benchmark's workloads (README.md says why each was chosen).

#include "common.h"

namespace perfbench {

/// triage_cold: fresh corpora through a fresh Engine::handle_batch.
void run_triage(const Args& args, RunResult& result);

/// serve_campaign (fresh == false) and serve_fresh (fresh == true): an
/// open-loop generator against `ideobf serve --fleet 2`.
void run_serve(const Args& args, bool fresh, RunResult& result);

/// Child side of the triage set-up probe: engine construction and pool
/// spin-up to the first reply, then one byte on stdout.
int probe_setup_main();

/// The server per-layer metrics, reported as zero by a workload that
/// bypasses the server.
void add_bypassed_server_metrics(RunResult& result);

/// Self-tests of the benchmark's own statistics; returns the failure count.
int run_self_tests();

}  // namespace perfbench
