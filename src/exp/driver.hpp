// End-to-end sweep driver: manifest -> executor -> artifacts -> console.
//
// This is the single code path behind the `latdiv-sweep` CLI; it owns
// progress reporting and artifact writing.
#pragma once

#include <cstdint>
#include <string>

#include "ckpt/sampler.hpp"
#include "exp/manifest.hpp"

namespace latdiv::exp {

struct SweepRunArgs {
  SweepOptions opts;
  std::string out_json;  ///< write the JSON artifact here ("" = skip)
  std::string out_csv;   ///< write the CSV artifact here ("" = skip)
  bool progress = true;  ///< per-point progress lines on stderr
  /// Print a per-phase wall-clock and simulation-throughput breakdown
  /// (build / simulate / report phases, simulated Mcycles/s, peak RSS)
  /// on stderr.  Emitted even when points fail or artifact writes fail.
  /// Measurement only — artifact bytes are unaffected.
  bool profile = false;
  /// When non-empty, every simulated point writes a Chrome trace_event
  /// JSON (`<dir>/<point-id>.trace.json`, '/' in ids becomes '_').
  std::string trace_dir;
  /// When non-empty, every simulated point writes a time-series CSV
  /// (`<dir>/<point-id>.timeseries.csv`).
  std::string timeseries_dir;
  /// When non-empty, every simulated point runs the latency-attribution
  /// profiler and writes its artifact (`<dir>/<point-id>.attrib.json`);
  /// the sweep artifact additionally carries attrib.* point metrics.
  std::string attrib_dir;
  /// Sampling epoch (DRAM cycles) for --timeseries rows.
  std::uint64_t sample_interval = 500;
  /// When non-empty, every simulated point snapshots its final state to
  /// `<dir>/<point-id>.snap` (--snapshot; '/' in ids becomes '_').
  std::string snapshot_dir;
  /// When non-empty, every simulated point restores
  /// `<dir>/<point-id>.snap` before running (--resume).  Points whose
  /// snapshot is missing fail with a CkptError like any other point
  /// error; fingerprints guard against configuration drift.
  std::string resume_dir;
  /// Run every simulated point under the SMARTS sampling schedule in
  /// `sampling` instead of full detail (--sampling[=D,W,P]).  Mutually
  /// exclusive with --trace/--timeseries (sampling requires the obs hub
  /// off) and with --snapshot (a sampled run teleports past the state a
  /// final snapshot would have to contain).
  bool sampled = false;
  ckpt::SamplingConfig sampling;
};

/// Run the named manifest and print its figure table.  Returns the
/// process exit code: 0 on success, 1 when any point failed, 2 on setup
/// errors (zero seeds, unknown manifest, empty filtered grid, unwritable
/// output).
int run_manifest(const std::string& name, const SweepRunArgs& args);

}  // namespace latdiv::exp
