// Trace sink: where lifecycle events go.
//
// The hub (src/obs/hub.hpp) narrates the simulation as TraceEvents;
// ChromeTraceSink renders them as the Chrome trace_event JSON that
// Perfetto / chrome://tracing load directly.
//
// ChromeTraceSink buffers the whole rendering in memory: runs are tens of
// thousands of cycles (a few MB of events at worst) and a byte-exact
// artifact held in memory is what the determinism tests and golden checks
// diff.  write_to() persists the buffer at end of run.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/event.hpp"

namespace latdiv::obs {

/// Chrome trace_event JSON ("JSON Object Format": {"traceEvents": [...]}).
/// Timestamps are emitted in raw simulation cycles; the trace declares
/// "displayTimeUnit":"ns" so viewers show them on a compact scale (one
/// GDDR5 command cycle is 0.667 ns — close enough for reading a
/// timeline; exact conversion is the summarizer's job).
class ChromeTraceSink {
 public:
  ChromeTraceSink();

  void emit(const TraceEvent& ev);

  /// Track naming (trace_event "M" metadata).  Names may be built on the
  /// caller's stack; the sink does not retain the view past the call.
  void process_name(std::uint32_t pid, std::string_view name);
  void thread_name(std::uint32_t pid, std::uint32_t tid,
                   std::string_view name);

  /// Close the JSON document (idempotent) and return the full rendering.
  [[nodiscard]] const std::string& finish();

  [[nodiscard]] std::uint64_t events() const { return events_; }

  /// Snapshot serialization (src/ckpt): the rendered buffer travels
  /// verbatim so a resumed trace stays byte-identical.
  template <class Ar>
  void ckpt_io(Ar& ar);

 private:
  void begin_event(char ph, const char* name, const char* cat,
                   std::uint32_t pid, std::uint32_t tid, Cycle ts);

  std::string out_;
  std::uint64_t events_ = 0;
  bool finished_ = false;
};

}  // namespace latdiv::obs
