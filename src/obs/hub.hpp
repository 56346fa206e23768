// ObsHub — the introspection layer's front door.
//
// One hub per simulation.  Instrumented components (memory controllers,
// the instruction tracker, the simulator's sampler) hold a nullable
// `obs::ObsHub*` and narrate what happens to it; the hub renders events
// into a ChromeTraceSink and folds distributions into a MetricRegistry.  A null
// hub pointer is the disabled path — one branch per would-be event, no
// allocation, no virtual call — which is what keeps observability free
// when off (bench/bench_throughput.cpp prices this).
//
// The hub is strictly an *observer*: it never feeds anything back into
// the simulation, so enabling it cannot perturb simulated state.  All
// event timestamps are true global cycle numbers.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/types.hpp"
#include "dram/command.hpp"
#include "mem/request.hpp"
#include "obs/attrib.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"

namespace latdiv::obs {

/// User-facing switches, embedded in SimConfig as `obs`.
struct ObsConfig {
  bool trace = false;       ///< request-lifecycle tracing (Chrome JSON)
  bool timeseries = false;  ///< sampled per-epoch CSV
  bool attrib = false;      ///< per-warp-load latency attribution
  /// Cycles between time-series samples.
  Cycle sample_interval = 500;
  std::string trace_path;       ///< write trace JSON here at end of run
  std::string timeseries_path;  ///< write time-series CSV here
  std::string metrics_path;     ///< write MetricRegistry JSON here
  std::string attrib_path;      ///< write attribution JSON here (implies attrib)

  /// Anything on?  Gates hub construction in the Simulator.
  [[nodiscard]] bool enabled() const {
    return trace || timeseries || attrib || !metrics_path.empty() ||
           !attrib_path.empty();
  }
};

class ObsHub {
 public:
  explicit ObsHub(const ObsConfig& cfg);
  ObsHub(const ObsHub&) = delete;
  ObsHub& operator=(const ObsHub&) = delete;

  [[nodiscard]] bool tracing() const noexcept { return cfg_.trace; }
  [[nodiscard]] bool sampling() const noexcept { return cfg_.timeseries; }
  [[nodiscard]] Cycle sample_interval() const noexcept {
    return cfg_.sample_interval;
  }

  // --- request lifecycle (called by mc::MemoryController) ---
  /// Request entered the controller's read/write queue.
  void req_enqueued(const MemRequest& req, Cycle now);
  /// Request moved into its bank's command queue.  Feeds the attribution
  /// profiler only; deliberately emits no trace event, so trace artifacts
  /// are unchanged by the attrib layer.
  void req_to_bank(const MemRequest& req, Cycle now);
  /// Read CAS issued for the request (head of its bank's command queue).
  void req_cas(const MemRequest& req, Cycle now);
  /// Read data burst fully returned to the controller.
  void req_data(const MemRequest& req, Cycle done);
  /// Write data accepted by the DRAM (the write's terminal event).
  void req_write_retired(const MemRequest& req, Cycle done);
  /// Row-state command observed on a channel (ACT/PRE/REF; RD/WR arrive
  /// via req_cas / req_write_retired with request context attached).
  void dram_command(ChannelId ch, const DramCommand& cmd, Cycle now);
  /// Write-drain episode boundaries (controller entered / left write mode).
  void drain_begin(ChannelId ch, Cycle now);
  void drain_end(ChannelId ch, Cycle now, std::uint64_t writes);

  // --- warp lifecycle (called by gpu::InstrTracker) ---
  /// One warp load retired: issue cycle, first/last DRAM completion, the
  /// cycle the warp actually woke, and its coalesced request count.
  /// Feeds the divergence histograms, the attribution profiler (keyed by
  /// `uid`) and (when tracing) the warp track.
  void warp_load(SmId sm, WarpId warp, WarpInstrUid uid, Cycle issued,
                 Cycle first_done, Cycle last_done, Cycle woke,
                 std::uint32_t reqs);

  // --- time series (called by sim::Simulator) ---
  /// Declare column names once before the first sample().  Names must be
  /// stable for the hub's lifetime.
  void set_series_columns(std::vector<std::string> names);
  /// Record one row; `values` must match the declared columns.  Also
  /// mirrored as trace counter events when tracing.
  void sample(Cycle now, std::span<const std::uint64_t> values);

  [[nodiscard]] MetricRegistry& metrics() noexcept { return registry_; }
  [[nodiscard]] const MetricRegistry& metrics() const noexcept {
    return registry_;
  }

  /// Close open episodes at `end` and write all configured output files;
  /// throws std::runtime_error naming the path of a file it cannot write.
  void finalize(Cycle end);

  // --- artifact access (tests and tools read these in memory) ---
  /// Finished Chrome JSON (an empty event list when not tracing).
  /// Finishes the sink on first call.
  [[nodiscard]] const std::string& trace_json();
  [[nodiscard]] const std::string& timeseries_csv() const { return series_; }
  [[nodiscard]] std::string metrics_json() const {
    return registry_.to_json();
  }
  [[nodiscard]] std::uint64_t trace_events() const;
  [[nodiscard]] const ObsConfig& config() const noexcept { return cfg_; }

  /// The attribution profiler, or nullptr when `cfg.attrib` is off.
  [[nodiscard]] AttributionProfiler* attrib() noexcept {
    return attrib_.get();
  }
  [[nodiscard]] const AttributionProfiler* attrib() const noexcept {
    return attrib_.get();
  }
  /// Finished attribution artifact ("" when attribution is off).
  [[nodiscard]] std::string attrib_json() const {
    return attrib_ != nullptr ? attrib_->to_json() : std::string{};
  }

  /// Snapshot serialization (src/ckpt): registry, trace buffer, series CSV
  /// and episode state all round-trip so an obs-enabled resume produces
  /// byte-identical artifacts; the hot-path handles are re-established at
  /// construction.
  template <class Ar>
  void ckpt_io(Ar& ar);

 private:
  void name_warp_track(SmId sm, WarpId warp);
  void name_bank_track(ChannelId ch, std::uint32_t tid);
  [[nodiscard]] bool first_use(std::uint32_t pid, std::uint32_t tid);

  ObsConfig cfg_;
  ChromeTraceSink chrome_;  ///< trace backend (used when cfg_.trace)

  MetricRegistry registry_;
  /// Latency-attribution layer; null when off (cfg_.attrib gates it).
  std::unique_ptr<AttributionProfiler> attrib_;
  // Hot-path handles into registry_ (stable pointers).
  Log2Histogram* h_gap_ = nullptr;
  Log2Histogram* h_first_ = nullptr;
  Log2Histogram* h_last_ = nullptr;
  Log2Histogram* h_queue_ = nullptr;
  Log2Histogram* h_service_ = nullptr;
  Counter* c_drains_ = nullptr;

  // Track-naming metadata already emitted, keyed (pid << 32) | tid.
  std::unordered_set<std::uint64_t> named_tracks_;
  std::unordered_set<std::uint32_t> named_pids_;

  // Open write-drain episodes, indexed by channel (kNoCycle = closed).
  std::vector<Cycle> drain_start_;

  std::vector<std::string> columns_;
  std::string series_;  ///< CSV buffer (header + one row per sample)
  bool finalized_ = false;
};

}  // namespace latdiv::obs
