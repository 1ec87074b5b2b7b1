// Chrome-trace-event JSON exporter (Perfetto-loadable).
//
// Mapping: pid = device, tid = stream (obs::kStream* layout), complete spans
// as ph:"X" with ts/dur on the VIRTUAL clock in microseconds, flow arrows as
// ph:"s"/"f" (bp:"e") keyed by the span flow ids. process_name/thread_name
// metadata rows label devices "dev0 (stage S, replica R)" and streams
// compute/d2h/h2d/collective/schedule/p2p->N.
//
// include_wall=false produces the deterministic export test_trace pins:
// wall stamps are stripped from args and the wall-clock DMA copy rows
// (cat "dma_chunk") are omitted, so two identical runs serialize
// byte-identically. include_wall=true adds a "wall_us" arg per span and one
// extra thread row per DMA stream (tid 100+stream) holding one span per DMA
// job's memcpy on the wall clock.
#pragma once

#include <string>

#include "obs/trace.hpp"

namespace sn::obs {

struct ChromeTraceOptions {
  bool include_wall = true;
};

std::string export_chrome_trace(const TraceSession& session, const ChromeTraceOptions& opts = {});

/// Export straight to `path`; false on I/O failure.
bool write_chrome_trace(const TraceSession& session, const std::string& path,
                        const ChromeTraceOptions& opts = {});

}  // namespace sn::obs
