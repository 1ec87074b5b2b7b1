#include "obs/chrome_trace.hpp"

#include <set>
#include <string>
#include <utility>

#include "util/json_writer.hpp"

namespace sn::obs {

namespace {

std::string stream_name(int stream) {
  switch (stream) {
    case kStreamCompute: return "compute";
    case kStreamD2H: return "d2h";
    case kStreamH2D: return "h2d";
    case kStreamCollective: return "collective";
    case kStreamSchedule: return "schedule";
    default: break;
  }
  if (stream >= kStreamP2PBase) return "p2p->" + std::to_string(stream - kStreamP2PBase);
  return "stream" + std::to_string(stream);
}

void emit_meta(util::JsonWriter& w, const char* what, int pid, int tid, const std::string& name,
               bool with_tid) {
  w.begin_object(util::JsonWriter::kInline);
  w.key("name").value(what);
  w.key("ph").value("M");
  w.key("pid").value(pid);
  if (with_tid) w.key("tid").value(tid);
  w.key("args").begin_object();
  w.key("name").value(name);
  w.end_object();
  w.end_object();
}

void emit_span(util::JsonWriter& w, const TraceSpan& s, bool include_wall) {
  w.begin_object(util::JsonWriter::kInline);
  w.key("name").value(s.name);
  w.key("cat").value(span_kind_name(s.kind));
  w.key("ph").value("X");
  w.key("pid").value(s.device);
  w.key("tid").value(s.stream);
  w.key("ts").value_fixed(s.vbegin * 1e6, 3);
  w.key("dur").value_fixed((s.vend - s.vbegin) * 1e6, 3);
  w.key("args").begin_object();
  if (s.kind == SpanKind::kStall) w.key("stall").value(stall_source_name(s.stall));
  if (!s.phase.empty()) w.key("phase").value(s.phase);
  if (s.microbatch >= 0) w.key("microbatch").value(s.microbatch);
  if (s.stage >= 0) w.key("stage").value(s.stage);
  if (s.replica >= 0) w.key("replica").value(s.replica);
  if (s.bytes > 0) w.key("bytes").value(s.bytes);
  if (include_wall) w.key("wall_us").value_fixed(s.wall * 1e6, 3);
  w.end_object();
  w.end_object();
}

void emit_flow(util::JsonWriter& w, const char* ph, uint64_t id, const TraceSpan& s) {
  w.begin_object(util::JsonWriter::kInline);
  w.key("name").value("flow");
  w.key("cat").value("flow");
  w.key("ph").value(ph);
  if (ph[0] == 'f') w.key("bp").value("e");
  w.key("id").value(id);
  w.key("pid").value(s.device);
  w.key("tid").value(s.stream);
  // Bind inside the producing/consuming slice: its start timestamp.
  w.key("ts").value_fixed(s.vbegin * 1e6, 3);
  w.end_object();
}

}  // namespace

std::string export_chrome_trace(const TraceSession& session, const ChromeTraceOptions& opts) {
  util::JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();

  // Metadata rows first: stable (device, stream) order.
  for (int dev : session.devices()) {
    const TraceRecorder* rec = session.recorder(dev);
    auto spans = rec->spans();
    std::set<int> streams;
    for (const auto& s : spans) streams.insert(s.stream);
    std::string pname = "dev" + std::to_string(dev);
    if (!spans.empty() && spans.front().stage >= 0) {
      pname += " (stage " + std::to_string(spans.front().stage);
      if (spans.front().replica >= 0) {
        pname += ", replica " + std::to_string(spans.front().replica);
      }
      pname += ")";
    }
    emit_meta(w, "process_name", dev, 0, pname, false);
    for (int st : streams) emit_meta(w, "thread_name", dev, st, stream_name(st), true);
    if (opts.include_wall && !rec->wall_chunks().empty()) {
      std::set<int> wall_streams;
      for (const auto& c : rec->wall_chunks()) wall_streams.insert(c.stream);
      for (int st : wall_streams) {
        emit_meta(w, "thread_name", dev, 100 + st, "wall:dma" + std::to_string(st), true);
      }
    }
  }

  for (int dev : session.devices()) {
    const TraceRecorder* rec = session.recorder(dev);
    for (const auto& s : rec->spans()) {
      emit_span(w, s, opts.include_wall);
      if (s.flow_out != 0) emit_flow(w, "s", s.flow_out, s);
      if (s.flow_in != 0) emit_flow(w, "f", s.flow_in, s);
    }
    if (opts.include_wall) {
      for (const auto& c : rec->wall_chunks()) {
        w.begin_object(util::JsonWriter::kInline);
        w.key("name").value("copy");
        w.key("cat").value("dma_chunk");
        w.key("ph").value("X");
        w.key("pid").value(dev);
        w.key("tid").value(100 + c.stream);
        w.key("ts").value_fixed(c.wbegin * 1e6, 3);
        w.key("dur").value_fixed((c.wend - c.wbegin) * 1e6, 3);
        w.key("args").begin_object();
        w.key("seq").value(c.seq);
        w.key("bytes").value(c.bytes);
        w.end_object();
        w.end_object();
      }
    }
  }

  w.end_array();
  w.end_object();
  return w.str();
}

bool write_chrome_trace(const TraceSession& session, const std::string& path,
                        const ChromeTraceOptions& opts) {
  std::string body = export_chrome_trace(session, opts);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  ok = std::fputc('\n', f) != EOF && ok;
  return std::fclose(f) == 0 && ok;
}

}  // namespace sn::obs
