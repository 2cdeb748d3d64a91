// mclobs implementation: the flight-recorder ring, context minting, the
// MCL_OBS / MCL_OBS_INJECT environment hooks, and the `.mclobs` dump writer.
#include "obs/obs.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <utility>

#include "prof/metrics.hpp"
#include "trace/trace.hpp"

namespace mcl::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}

namespace {

std::atomic<std::uint64_t> g_next_seq{1};

struct SectionEntry {
  int token = 0;
  std::string name;
  SectionFn fn;
};

// Recorder state. One mutex for the ring/config/rate-limit, one for the
// complete sink, and one for the section registry, so neither a harness's
// sink nor a dump's section callbacks (which take subsystem locks) stall
// record() on hot paths.
struct State {
  std::mutex mu;
  std::vector<Record> ring{std::vector<Record>(kDefaultRingCapacity)};
  std::size_t capacity = kDefaultRingCapacity;
  std::uint64_t appended = 0;  // total records ever; ring holds the tail
  std::string dump_dir;
  std::uint32_t max_dumps = 8;
  std::uint64_t min_dump_interval_ns = 1'000'000'000;  // 1 s
  std::uint32_t dumps_written = 0;
  std::uint64_t last_dump_ns = 0;
  std::uint64_t last_drop_check = 0;   // trace::dropped_events() at last check
  std::uint64_t completes_since_check = 0;

  std::mutex sink_mu;
  CompleteSink complete_sink;  // guarded by sink_mu

  std::mutex sections_mu;
  std::vector<SectionEntry> sections;
  int next_token = 1;
};

State& state() {
  // Leaked on purpose: atexit-time anomaly paths may outlive non-leaked
  // static destruction (same pattern as the trace session).
  static State* const s = new State;
  return *s;
}

void append_locked(State& s, const Record& r) {
  s.ring[s.appended % s.capacity] = r;
  ++s.appended;
}

void json_escape(std::string& out, const char* p) {
  for (; *p != '\0'; ++p) {
    const char c = *p;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void append_record(std::string& out, const Record& r) {
  out += "{\"ts_ns\":";
  append_u64(out, r.ts_ns);
  out += ",\"ctx\":";
  append_u64(out, r.ctx);
  out += ",\"tenant\":";
  append_u64(out, r.tenant);
  out += ",\"kind\":\"";
  out += kind_name(r.kind);
  out += "\",\"status\":\"";
  json_escape(out, std::string(core::to_string(r.status)).c_str());
  out += "\",\"detail\":";
  if (r.detail != nullptr) {
    out += '"';
    json_escape(out, r.detail);
    out += '"';
  } else {
    out += "null";
  }
  out += ",\"args\":[";
  for (std::size_t i = 0; i < 6; ++i) {
    if (i > 0) out += ',';
    append_u64(out, r.args[i]);
  }
  out += "]}";
}

// Armed fault, cached from MCL_OBS_INJECT on first use; -1 = not read yet.
std::atomic<int> g_inject{-1};

std::uint64_t sub_sat(std::uint64_t a, std::uint64_t b) noexcept {
  return a > b ? a - b : 0;
}

}  // namespace

const char* kind_name(Kind k) noexcept {
  switch (k) {
    case Kind::Submit: return "submit";
    case Kind::Forward: return "forward";
    case Kind::Complete: return "complete";
    case Kind::Timeout: return "timeout";
    case Kind::Cancel: return "cancel";
    case Kind::Error: return "error";
    case Kind::Quarantine: return "quarantine";
    case Kind::DropBurst: return "drop_burst";
    case Kind::Inject: return "inject";
    case Kind::Mark: return "mark";
  }
  return "?";
}

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t mint_context(std::uint32_t tenant_id) noexcept {
  const std::uint64_t seq =
      g_next_seq.fetch_add(1, std::memory_order_relaxed);
  return (static_cast<std::uint64_t>(tenant_id) << 48) |
         (seq & ((std::uint64_t{1} << 48) - 1));
}

std::uint64_t ensure_context() noexcept {
  const std::uint64_t cur = trace::current_context();
  return cur != 0 ? cur : mint_context(0);
}

PathSegments decompose(const RequestTimes& t) noexcept {
  PathSegments out;
  out.is_kernel = t.is_kernel;
  // The serve-side window ends at the command's enqueue (queued_ns), so the
  // scheduler's own forward work (kernel setup, recording) counts as
  // admission instead of falling between segments; a request that never
  // reached a queue ends it at forward. Direct-enqueue callers only have
  // ProfilingInfo, so their pre-queue segments are empty.
  const std::uint64_t submit = t.submit_ns != 0 ? t.submit_ns : t.queued_ns;
  const std::uint64_t serve_end =
      t.queued_ns != 0 ? t.queued_ns : t.forward_ns;
  const std::uint64_t done = t.done_ns != 0 ? t.done_ns : t.ended_ns;
  out.total_ns = sub_sat(done, submit);

  const std::uint64_t serve_window = sub_sat(serve_end, submit);
  const std::uint64_t serve_dep =
      std::min(serve_window, sub_sat(t.dep_ready_ns, submit));
  out.admission_ns = serve_window - serve_dep;
  out.dependency_ns = serve_dep + sub_sat(t.submitted_ns, t.queued_ns);
  out.queue_ns = sub_sat(t.started_ns, t.submitted_ns);
  out.exec_ns = sub_sat(t.ended_ns, t.started_ns);
  return out;
}

void note_request_complete(std::uint64_t ctx, std::uint32_t tenant,
                           const PathSegments& segs, core::Status status) {
  if (!enabled()) return;
  Record r;
  r.ts_ns = trace::clock_ns();
  r.ctx = ctx;
  r.tenant = tenant;
  r.kind = Kind::Complete;
  r.status = status;
  r.args[0] = segs.admission_ns;
  r.args[1] = segs.dependency_ns;
  r.args[2] = segs.queue_ns;
  r.args[3] = segs.exec_ns;
  r.args[4] = segs.total_ns;
  r.args[5] = segs.is_kernel ? 1 : 0;

  bool drop_burst = false;
  std::uint64_t drop_delta = 0;
  State& s = state();
  {
    std::lock_guard lock(s.mu);
    append_locked(s, r);
    // Drop-burst detector: poll the tracer's drop counter every 256
    // completions (dropped_events() takes the trace session lock).
    if (++s.completes_since_check >= 256) {
      s.completes_since_check = 0;
      const std::uint64_t now_dropped = trace::dropped_events();
      drop_delta = sub_sat(now_dropped, s.last_drop_check);
      s.last_drop_check = now_dropped;
      drop_burst = drop_delta >= kDropBurstThreshold;
    }
  }
  {
    std::lock_guard lock(s.sink_mu);
    if (s.complete_sink) s.complete_sink(r);
  }
  if (prof::enabled()) {
    static const prof::Histogram h_admission =
        prof::histogram("obs.admission_ns");
    static const prof::Histogram h_dependency =
        prof::histogram("obs.dependency_ns");
    static const prof::Histogram h_queue = prof::histogram("obs.queue_ns");
    static const prof::Histogram h_kernel = prof::histogram("obs.kernel_ns");
    static const prof::Histogram h_transfer =
        prof::histogram("obs.transfer_ns");
    static const prof::Histogram h_total = prof::histogram("obs.total_ns");
    h_admission.record(segs.admission_ns);
    h_dependency.record(segs.dependency_ns);
    h_queue.record(segs.queue_ns);
    (segs.is_kernel ? h_kernel : h_transfer).record(segs.exec_ns);
    h_total.record(segs.total_ns);
  }
  if (drop_burst) {
    anomaly(Kind::DropBurst, ctx, "trace ring drop burst",
            core::Status::Success, drop_delta);
  }
}

void set_complete_sink(CompleteSink sink) {
  State& s = state();
  std::lock_guard lock(s.sink_mu);
  s.complete_sink = std::move(sink);
}

void record(const Record& r) {
  if (!enabled()) return;
  State& s = state();
  std::lock_guard lock(s.mu);
  append_locked(s, r);
}

std::vector<Record> snapshot_records() {
  State& s = state();
  std::lock_guard lock(s.mu);
  std::vector<Record> out;
  const std::uint64_t n = std::min<std::uint64_t>(s.appended, s.capacity);
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = s.appended - n; i < s.appended; ++i) {
    out.push_back(s.ring[i % s.capacity]);
  }
  return out;
}

std::uint64_t total_recorded() {
  State& s = state();
  std::lock_guard lock(s.mu);
  return s.appended;
}

void set_ring_capacity(std::size_t capacity) {
  State& s = state();
  std::lock_guard lock(s.mu);
  s.capacity = std::max<std::size_t>(capacity, 1);
  s.ring.assign(s.capacity, Record{});
  s.appended = 0;
}

void reset() {
  State& s = state();
  std::lock_guard lock(s.mu);
  s.ring.assign(s.capacity, Record{});
  s.appended = 0;
  s.dumps_written = 0;
  s.last_dump_ns = 0;
  s.last_drop_check = trace::dropped_events();
  s.completes_since_check = 0;
}

void anomaly(Kind kind, std::uint64_t ctx, const char* detail,
             core::Status status, std::uint64_t a0) {
  if (!enabled()) return;
  Record r;
  r.ts_ns = trace::clock_ns();
  r.ctx = ctx;
  r.tenant = context_tenant(ctx);
  r.kind = kind;
  r.status = status;
  r.detail = detail;
  r.args[0] = a0;
  bool allow = false;
  {
    State& s = state();
    std::lock_guard lock(s.mu);
    append_locked(s, r);
    if (!s.dump_dir.empty() && s.dumps_written < s.max_dumps &&
        (s.last_dump_ns == 0 ||
         r.ts_ns - s.last_dump_ns >= s.min_dump_interval_ns)) {
      allow = true;
      ++s.dumps_written;
      s.last_dump_ns = r.ts_ns;
    }
  }
  if (allow) dump_now(kind, ctx, detail);
}

void set_dump_dir(const std::string& dir) {
  State& s = state();
  std::lock_guard lock(s.mu);
  s.dump_dir = dir;
}

std::string dump_dir() {
  State& s = state();
  std::lock_guard lock(s.mu);
  return s.dump_dir;
}

void set_dump_limit(std::uint32_t max_dumps, std::uint64_t min_interval_ns) {
  State& s = state();
  std::lock_guard lock(s.mu);
  s.max_dumps = max_dumps;
  s.min_dump_interval_ns = min_interval_ns;
}

std::string snapshot_json(Kind trigger_kind, std::uint64_t trigger_ctx,
                          const char* detail) {
  const std::vector<Record> records = snapshot_records();
  std::uint64_t appended = 0;
  {
    State& s = state();
    std::lock_guard lock(s.mu);
    appended = s.appended;
  }

  std::string out;
  out.reserve(records.size() * 160 + 4096);
  out += "{\"mclobs\":1,\"clock\":\"steady_clock\",\"trigger\":{\"kind\":\"";
  out += kind_name(trigger_kind);
  out += "\",\"ctx\":";
  append_u64(out, trigger_ctx);
  out += ",\"tenant\":";
  append_u64(out, context_tenant(trigger_ctx));
  out += ",\"ts_ns\":";
  append_u64(out, trace::clock_ns());
  out += ",\"detail\":";
  if (detail != nullptr) {
    out += '"';
    json_escape(out, detail);
    out += '"';
  } else {
    out += "null";
  }
  out += "},\"total_recorded\":";
  append_u64(out, appended);
  out += ",\"events\":[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i > 0) out += ',';
    out += '\n';
    append_record(out, records[i]);
  }
  out += "],\"related_events\":[";
  if (trigger_ctx != 0) {
    bool first = true;
    for (const Record& r : records) {
      if (r.ctx != trigger_ctx) continue;
      if (!first) out += ',';
      first = false;
      out += '\n';
      append_record(out, r);
    }
  }
  out += "],\"metrics\":";
  out += prof::metrics_json(prof::snapshot());
  out += ",\"sections\":{";
  {
    State& s = state();
    std::lock_guard lock(s.sections_mu);
    bool first = true;
    for (const SectionEntry& e : s.sections) {
      if (!first) out += ',';
      first = false;
      out += "\n\"";
      json_escape(out, e.name.c_str());
      out += "\":";
      out += e.fn();
    }
  }
  out += "}}\n";
  return out;
}

std::string dump_now(Kind trigger_kind, std::uint64_t trigger_ctx,
                     const char* detail, const std::string& path) {
  std::string target = path;
  if (target.empty()) {
    std::string dir;
    std::uint32_t seq = 0;
    {
      State& s = state();
      std::lock_guard lock(s.mu);
      dir = s.dump_dir;
      seq = s.dumps_written;
    }
    if (dir.empty()) return "";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    target = dir + "/mclobs-" + kind_name(trigger_kind) + "-" +
             std::to_string(seq) + ".mclobs";
  }
  const std::string doc = snapshot_json(trigger_kind, trigger_ctx, detail);
  std::ofstream file(target, std::ios::binary);
  if (!file) return "";
  file.write(doc.data(), static_cast<std::streamsize>(doc.size()));
  if (!file) return "";
  std::fprintf(stderr, "mclobs: wrote %s (trigger %s, ctx %llu)\n",
               target.c_str(), kind_name(trigger_kind),
               static_cast<unsigned long long>(trigger_ctx));
  return target;
}

int register_section(const std::string& name, SectionFn fn) {
  State& s = state();
  std::lock_guard lock(s.sections_mu);
  const int token = s.next_token++;
  s.sections.push_back({token, name, std::move(fn)});
  return token;
}

void unregister_section(int token) {
  State& s = state();
  std::lock_guard lock(s.sections_mu);
  std::erase_if(s.sections,
                [token](const SectionEntry& e) { return e.token == token; });
}

Inject parse_inject(const char* value) noexcept {
  if (value == nullptr) return Inject::None;
  if (std::strcmp(value, "hang") == 0) return Inject::Hang;
  if (std::strcmp(value, "error") == 0) return Inject::Error;
  return Inject::None;
}

Inject inject() noexcept {
  int v = g_inject.load(std::memory_order_relaxed);
  if (v < 0) {
    v = static_cast<int>(parse_inject(std::getenv("MCL_OBS_INJECT")));
    g_inject.store(v, std::memory_order_relaxed);
  }
  return static_cast<Inject>(v);
}

void set_inject(Inject mode) {
  g_inject.store(static_cast<int>(mode), std::memory_order_relaxed);
}

namespace {

// MCL_OBS=1 arms the recorder; MCL_OBS=<dir> also enables anomaly dumps.
struct EnvAutoStart {
  EnvAutoStart() {
    const char* v = std::getenv("MCL_OBS");
    if (v == nullptr || *v == '\0' || std::strcmp(v, "0") == 0) return;
    if (std::strcmp(v, "1") != 0) set_dump_dir(v);
    set_enabled(true);
  }
};
const EnvAutoStart g_env_autostart;

}  // namespace

}  // namespace mcl::obs
