// latdiv-trace — summarise / validate the Chrome trace_event JSON files
// written by the observability layer (`latdiv-sweep --trace`, or any
// SimConfig with cfg.obs.trace set), and render the attribution
// artifacts written by `latdiv-sweep --attrib`.
//
//   latdiv-trace summary FILE [--top N] [--attrib FILE]
//                                         top-N slowest warp loads,
//                                         per-bank ACT/PRE breakdown,
//                                         write-drain totals; with
//                                         --attrib, append the latency-
//                                         attribution section
//   latdiv-trace attrib FILE              latency-attribution section only
//   latdiv-trace validate FILE            strict trace_event schema check
//
// The summariser is deterministic (src/exp/trace_report.cpp): ties in
// the top-N ranking break on (start cycle, track id), so the same trace
// always prints the same report, and empty sections render "(none)".
//
// Exit codes: 0 ok, 1 schema violation, 2 usage or I/O errors.
#include <cstdio>
#include <cstring>
#include <string>

#include "cli.hpp"
#include "exp/json.hpp"
#include "exp/trace_report.hpp"

using latdiv::exp::JsonValue;

namespace {

constexpr const char* kTool = "latdiv-trace";

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: latdiv-trace summary FILE [--top N] [--attrib FILE]\n"
               "       latdiv-trace attrib FILE\n"
               "       latdiv-trace validate FILE\n"
               "\n"
               "  summary    top-N slowest warp loads, per-bank ACT/PRE\n"
               "             breakdown and write-drain totals; --attrib\n"
               "             appends the latency-attribution section\n"
               "  attrib     latency-attribution section of an artifact\n"
               "             written by `latdiv-sweep --attrib`\n"
               "  validate   strict trace_event schema check (exit 1 on\n"
               "             the first violation)\n");
}

/// Parse `path` as JSON; exit code by reference (2 unreadable, 1 not
/// JSON) with the message already printed.
bool load_json(const char* path, JsonValue& doc, int& rc) {
  std::string text;
  if (!latdiv::cli::read_file(path, text)) {
    std::fprintf(stderr, "latdiv-trace: cannot read '%s'\n", path);
    rc = 2;
    return false;
  }
  try {
    doc = JsonValue::parse(text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "latdiv-trace: '%s' is not JSON: %s\n", path,
                 e.what());
    rc = 1;
    return false;
  }
  return true;
}

const std::string* str_member(const JsonValue& ev, const char* key) {
  const JsonValue* v = ev.find(key);
  if (v == nullptr || v->kind() != JsonValue::Kind::kString) return nullptr;
  return &v->as_string();
}

// ---------------------------------------------------------------------------
// validate

int cmd_validate(const char* path) {
  int rc = 0;
  JsonValue doc;
  if (!load_json(path, doc, rc)) return rc;
  if (!doc.is_object()) {
    std::fprintf(stderr, "latdiv-trace: top level must be an object\n");
    return 1;
  }
  const JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    std::fprintf(stderr,
                 "latdiv-trace: missing 'traceEvents' array member\n");
    return 1;
  }

  const auto fail = [](std::size_t i, const char* what) {
    std::fprintf(stderr, "latdiv-trace: event %zu: %s\n", i, what);
    return 1;
  };

  const JsonValue::Array& arr = events->as_array();
  for (std::size_t i = 0; i < arr.size(); ++i) {
    const JsonValue& ev = arr[i];
    if (!ev.is_object()) return fail(i, "not an object");
    const std::string* name = str_member(ev, "name");
    if (name == nullptr || name->empty()) {
      return fail(i, "missing string 'name'");
    }
    const std::string* ph = str_member(ev, "ph");
    if (ph == nullptr || ph->size() != 1) {
      return fail(i, "missing one-char string 'ph'");
    }
    const char phase = (*ph)[0];
    if (phase != 'X' && phase != 'i' && phase != 'C' && phase != 'M') {
      return fail(i, "unsupported phase (want X, i, C or M)");
    }
    for (const char* key : {"pid", "tid"}) {
      const JsonValue* v = ev.find(key);
      if (v == nullptr || v->kind() != JsonValue::Kind::kNumber) {
        return fail(i, "missing numeric pid/tid");
      }
    }
    if (phase != 'M') {
      const JsonValue* ts = ev.find("ts");
      if (ts == nullptr || ts->kind() != JsonValue::Kind::kNumber) {
        return fail(i, "missing numeric 'ts'");
      }
    }
    if (phase == 'X') {
      const JsonValue* dur = ev.find("dur");
      if (dur == nullptr || dur->kind() != JsonValue::Kind::kNumber) {
        return fail(i, "complete event without numeric 'dur'");
      }
    }
    if (phase == 'C') {
      const JsonValue* a = ev.find("args");
      if (a == nullptr || !a->is_object() || a->as_object().empty()) {
        return fail(i, "counter event without args");
      }
    }
    if (phase == 'M') {
      if (*name != "process_name" && *name != "thread_name") {
        return fail(i, "unknown metadata event name");
      }
      const JsonValue* a = ev.find("args");
      if (a == nullptr || !a->is_object() ||
          str_member(*a, "name") == nullptr) {
        return fail(i, "metadata event without args.name");
      }
    }
  }
  std::printf("valid: %zu trace events\n", arr.size());
  return 0;
}

// ---------------------------------------------------------------------------
// summary / attrib

int cmd_attrib(const char* path) {
  int rc = 0;
  JsonValue doc;
  if (!load_json(path, doc, rc)) return rc;
  try {
    std::fputs(latdiv::exp::attrib_summary(doc, path).c_str(), stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "latdiv-trace: '%s': %s\n", path, e.what());
    return 1;
  }
  return 0;
}

int cmd_summary(const char* path, std::size_t top_n,
                const char* attrib_path) {
  int rc = 0;
  JsonValue doc;
  if (!load_json(path, doc, rc)) return rc;
  try {
    std::fputs(latdiv::exp::trace_summary(doc, path, top_n).c_str(), stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "latdiv-trace: '%s': %s\n", path, e.what());
    return 1;
  }
  if (attrib_path != nullptr) return cmd_attrib(attrib_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    usage(stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "validate" && argc == 3) return cmd_validate(argv[2]);
  if (cmd == "attrib" && argc == 3) return cmd_attrib(argv[2]);
  if (cmd == "summary") {
    std::size_t top_n = 10;
    const char* path = argv[2];
    const char* attrib_path = nullptr;
    for (int i = 3; i < argc; ++i) {
      const char* flag = argv[i];
      if (std::strcmp(flag, "--top") == 0) {
        latdiv::cli::next_uint(kTool, argc, argv, i, top_n);
      } else if (std::strcmp(flag, "--attrib") == 0) {
        attrib_path = latdiv::cli::next_arg(kTool, argc, argv, i);
      } else {
        usage(stderr);
        return 2;
      }
    }
    return cmd_summary(path, top_n, attrib_path);
  }
  usage(stderr);
  return 2;
}
