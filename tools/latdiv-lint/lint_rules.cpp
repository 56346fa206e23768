#include "lint_rules.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

namespace latdiv::lint {
namespace {

// Simulation-state types observers may only see through const: seeded with
// the core component classes, extended with every class discovered outside
// src/obs and src/check.
const std::set<std::string> kSimStateSeed = {
    "MemoryController", "Channel",  "Crossbar",    "Partition",
    "Sm",               "Simulator", "InstrTracker", "MshrFile",
    "CoordinationNetwork", "BoundedQueue", "MemRequest", "MemResponse",
};

bool path_contains(const std::string& path, const char* dir) {
  return path.find(dir) != std::string::npos;
}

bool is_observer_file(const std::string& path) {
  return path_contains(path, "/obs/") || path_contains(path, "/check/") ||
         path.rfind("obs/", 0) == 0 || path.rfind("check/", 0) == 0;
}

std::vector<std::string> split_tokens(const std::string& type) {
  std::vector<std::string> out;
  std::istringstream in(type);
  std::string t;
  while (in >> t) out.push_back(t);
  return out;
}

/// Render a space-joined token type compactly for messages.
std::string pretty_type(const std::string& type) {
  std::vector<std::string> toks = split_tokens(type);
  std::string out;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i];
    const bool tight = t == "::" || t == "<" || t == ">" || t == "," ||
                       t == "*" || t == "&";
    const bool prev_tight =
        i > 0 && (toks[i - 1] == "::" || toks[i - 1] == "<" ||
                  toks[i - 1] == ",");
    if (!out.empty() && !tight && !prev_tight) out += ' ';
    if (t == ",") {
      out += ", ";
      continue;
    }
    out += t;
  }
  return out;
}

/// One-level alias expansion: replace any token that names an alias with
/// the alias's definition (enough for `using ResponseFn = std::function<…>`
/// style indirection; deliberately not recursive to stay cycle-proof).
std::string expand_aliases(const std::string& type,
                           const std::map<std::string, std::string>& aliases) {
  std::vector<std::string> toks = split_tokens(type);
  std::string out;
  for (const std::string& t : toks) {
    auto it = aliases.find(t);
    if (!out.empty()) out += ' ';
    out += (it != aliases.end()) ? it->second : t;
  }
  return out;
}

bool contains_token(const std::string& type, const std::string& needle) {
  for (const std::string& t : split_tokens(type)) {
    if (t == needle) return true;
  }
  return false;
}

bool is_unordered_type(const std::string& expanded) {
  return contains_token(expanded, "unordered_map") ||
         contains_token(expanded, "unordered_set");
}

bool is_float_type(const std::string& expanded) {
  std::vector<std::string> toks = split_tokens(expanded);
  std::erase_if(toks, [](const std::string& t) {
    return t == "const" || t == "&" || t == "&&" || t == "constexpr" ||
           t == "volatile";
  });
  return toks.size() == 1 && (toks[0] == "float" || toks[0] == "double");
}

// --- pooled symbol tables ------------------------------------------------

struct Tables {
  std::map<std::string, std::string> aliases;  // merged across files
  std::set<std::string> unordered_vars;
  std::map<std::string, const VarDecl*> unordered_decl;  // exemplar per name
  std::set<std::string> unordered_funcs;  // accessors returning unordered
  std::set<std::string> float_vars;
  std::set<std::string> simstate;
};

Tables build_tables(const std::vector<FileModel>& files) {
  Tables tb;
  tb.simstate = kSimStateSeed;
  for (const FileModel& f : files) {
    for (const auto& [name, type] : f.aliases) tb.aliases[name] = type;
    if (!is_observer_file(f.path)) {
      for (const std::string& c : f.classes) tb.simstate.insert(c);
    }
  }
  for (const FileModel& f : files) {
    for (const VarDecl& v : f.vars) {
      const std::string t = expand_aliases(v.type, tb.aliases);
      if (is_unordered_type(t)) {
        tb.unordered_vars.insert(v.name);
        tb.unordered_decl.emplace(v.name, &v);
      }
      if (is_float_type(t)) tb.float_vars.insert(v.name);
    }
    for (const FuncDecl& fn : f.funcs) {
      const std::string rt = expand_aliases(fn.return_type, tb.aliases);
      if (is_unordered_type(rt)) tb.unordered_funcs.insert(fn.name);
    }
  }
  return tb;
}

// --- suppression bookkeeping ---------------------------------------------

class SupIndex {
 public:
  explicit SupIndex(FileModel& f) {
    for (Suppression& s : f.sups) {
      by_line_[s.line].push_back(&s);
    }
  }

  /// True (and marks the suppression used) if `rule` is suppressed at
  /// `line` — directive on the same line or the line above.
  bool suppressed(const std::string& rule, int line) {
    for (int l : {line, line - 1}) {
      auto it = by_line_.find(l);
      if (it == by_line_.end()) continue;
      for (Suppression* s : it->second) {
        if (s->rule == rule) {
          s->used = true;
          return true;
        }
      }
    }
    return false;
  }

 private:
  std::map<int, std::vector<Suppression*>> by_line_;
};

// --- per-file rule passes -------------------------------------------------

class Checker {
 public:
  Checker(FileModel& f, const Tables& tb, std::vector<Finding>& out)
      : f_(f), tb_(tb), out_(out), sups_(f) {}

  void run() {
    wall_clock();
    unseeded_rng();
    unordered_iter_and_float_accum();
    pointer_key();
    if (is_observer_file(f_.path)) observer_purity();
    mutable_static();
  }

 private:
  FileModel& f_;
  const Tables& tb_;
  std::vector<Finding>& out_;
  SupIndex sups_;

  void emit(const std::string& rule, int line, std::string message) {
    if (sups_.suppressed(rule, line)) return;
    out_.push_back(Finding{f_.path, line, rule, std::move(message)});
  }

  const std::string& tok(std::size_t k) const {
    static const std::string kEmpty;
    return k < f_.tokens.size() ? f_.tokens[k].text : kEmpty;
  }
  bool is_ident(std::size_t k) const {
    return k < f_.tokens.size() &&
           f_.tokens[k].kind == Token::Kind::kIdent;
  }

  /// Member access / qualification guard for C-library calls: `x.time(`
  /// and `foo::time(` are not the libc function, but `std::time(` and a
  /// bare `time(` are.
  bool is_free_call(std::size_t k) const {
    if (k == 0) return true;
    const std::string& prev = tok(k - 1);
    if (prev == "." || prev == "->") return false;
    if (prev == "::") return k >= 2 && tok(k - 2) == "std";
    return true;
  }

  void wall_clock() {
    static const std::set<std::string> kClocks = {
        "system_clock", "steady_clock", "high_resolution_clock"};
    static const std::set<std::string> kCalls = {
        "gettimeofday", "clock_gettime", "timespec_get", "localtime",
        "gmtime"};
    for (std::size_t k = 0; k < f_.tokens.size(); ++k) {
      if (!is_ident(k)) continue;
      const std::string& s = tok(k);
      if (kClocks.count(s) != 0) {
        emit("wall-clock", f_.tokens[k].line,
             "std::chrono::" + s +
                 " reads wall-clock time; simulator state must depend only "
                 "on simulated cycles (measurement-only uses: `// lint: "
                 "wall-clock-ok`)");
      } else if (kCalls.count(s) != 0 && tok(k + 1) == "(") {
        emit("wall-clock", f_.tokens[k].line,
             s + "() reads wall-clock time; banned in the simulator");
      } else if ((s == "time" || s == "clock") && tok(k + 1) == "(" &&
                 is_free_call(k)) {
        emit("wall-clock", f_.tokens[k].line,
             s + "() reads wall-clock time; banned in the simulator");
      }
    }
  }

  void unseeded_rng() {
    static const std::set<std::string> kCalls = {"rand", "srand", "rand_r",
                                                 "drand48", "lrand48"};
    for (std::size_t k = 0; k < f_.tokens.size(); ++k) {
      if (!is_ident(k)) continue;
      const std::string& s = tok(k);
      if (s == "random_device") {
        emit("unseeded-rng", f_.tokens[k].line,
             "std::random_device is unseeded; all randomness must flow "
             "through the seeded Rng in common/rng.hpp");
      } else if (kCalls.count(s) != 0 && tok(k + 1) == "(" &&
                 is_free_call(k)) {
        emit("unseeded-rng", f_.tokens[k].line,
             s + "() is unseeded global randomness; use the seeded Rng in "
                 "common/rng.hpp");
      }
    }
  }

  void unordered_iter_and_float_accum() {
    for (const LoopSite& loop : f_.loops) {
      bool unordered = false;
      std::string origin;
      if (loop.iter_is_call) {
        if (tb_.unordered_funcs.count(loop.iter_name) != 0) {
          unordered = true;
          origin = loop.iter_name + "() returns an unordered container";
        }
      } else if (tb_.unordered_vars.count(loop.iter_name) != 0) {
        unordered = true;
        auto it = tb_.unordered_decl.find(loop.iter_name);
        origin = "'" + loop.iter_name + "' is declared " +
                 (it != tb_.unordered_decl.end()
                      ? pretty_type(it->second->type) + " (" +
                            it->second->file + ":" +
                            std::to_string(it->second->line) + ")"
                      : "unordered");
      }
      if (!unordered) continue;
      emit("unordered-iter", loop.line,
           "iteration over unordered container: " + origin +
               "; iteration order depends on hashing salt and pointer "
               "values (aggregation-only loops: `// lint: "
               "order-independent`)");
      // Float accumulation inside the loop body is order-dependent even
      // when the loop itself is vouched order-independent — floating-point
      // addition does not commute across reorderings.
      for (std::size_t k = loop.body_begin;
           k < loop.body_end && k < f_.tokens.size(); ++k) {
        const std::string& s = tok(k);
        if (s != "+=" && s != "-=" && s != "*=" && s != "/=") continue;
        if (k == 0 || !is_ident(k - 1)) continue;
        const std::string& lhs = tok(k - 1);
        if (tb_.float_vars.count(lhs) == 0) continue;
        emit("float-accum", f_.tokens[k].line,
             "float accumulation into '" + lhs +
                 "' inside a loop over unordered container '" +
                 loop.iter_name +
                 "'; result depends on iteration order (justified: `// "
                 "lint: float-accum-ok`)");
      }
    }
  }

  void pointer_key() {
    for (const VarDecl& v : f_.vars) {
      const std::string expanded = expand_aliases(v.type, tb_.aliases);
      std::vector<std::string> toks = split_tokens(expanded);
      for (std::size_t k = 0; k + 1 < toks.size(); ++k) {
        if ((toks[k] != "map" && toks[k] != "set") || toks[k + 1] != "<") {
          continue;
        }
        // First top-level template argument.
        int depth = 0;
        bool ptr = false;
        for (std::size_t j = k + 1; j < toks.size(); ++j) {
          if (toks[j] == "<") ++depth;
          else if (toks[j] == ">") {
            if (--depth == 0) break;
          } else if (toks[j] == "," && depth == 1) {
            break;
          } else if (toks[j] == "*" && depth == 1) {
            ptr = true;
          }
        }
        if (ptr) {
          emit("pointer-key", v.line,
               "ordered container '" + v.name +
                   "' is keyed by a pointer; pointer order is allocation "
                   "order, which is nondeterministic across runs "
                   "(justified: `// lint: pointer-key-ok`)");
        }
      }
    }
  }

  void observer_purity() {
    for (const FuncDecl& fn : f_.funcs) {
      for (const Param& p : fn.params) {
        const std::string expanded = expand_aliases(p.type, tb_.aliases);
        if (contains_token(expanded, "const")) continue;
        const bool by_ref = contains_token(expanded, "&") ||
                            contains_token(expanded, "&&") ||
                            contains_token(expanded, "*");
        if (!by_ref) continue;
        bool sim_state = false;
        std::string which;
        for (const std::string& t : split_tokens(expanded)) {
          if (tb_.simstate.count(t) != 0) {
            sim_state = true;
            which = t;
            break;
          }
        }
        if (!sim_state) continue;
        emit("observer-purity", fn.line,
             "observer entry point '" + fn.name +
                 "' takes mutable simulation state (" + which +
                 "); code under src/obs and src/check may only take const "
                 "references (justified: `// lint: observer-purity-ok`)");
      }
    }
  }

  void mutable_static() {
    for (const VarDecl& v : f_.vars) {
      if (!v.is_static || v.is_const || v.annotated) continue;
      emit("mutable-static", v.line,
           "mutable static '" + v.name +
               "' is state shared by every simulation in the process "
               "(--jobs runs them concurrently); make it const or annotate "
               "it with LATDIV_GUARDED_BY(lock) (common/annotations.hpp)");
    }
  }
};

}  // namespace

const std::vector<std::string>& rule_ids() {
  static const std::vector<std::string> kIds = {
      "wall-clock",     "unseeded-rng",  "unordered-iter",
      "pointer-key",    "float-accum",   "observer-purity",
      "mutable-static", "unused-suppression",
  };
  return kIds;
}

std::vector<Finding> run_rules(std::vector<FileModel>& files) {
  Tables tb = build_tables(files);
  std::vector<Finding> out;
  for (FileModel& f : files) {
    Checker(f, tb, out).run();
  }
  // Unused (or unknown) suppressions are findings themselves: a
  // suppression that suppresses nothing is stale and hides intent.
  for (FileModel& f : files) {
    for (const Suppression& s : f.sups) {
      if (s.used) continue;
      if (s.rule.empty()) {
        out.push_back(Finding{
            f.path, s.line, "unused-suppression",
            "unknown lint directive '" + s.directive +
                "'; expected `<rule>-ok` or `order-independent`"});
      } else {
        out.push_back(Finding{
            f.path, s.line, "unused-suppression",
            "suppression '" + s.directive +
                "' suppresses nothing on this or the next line; remove it"});
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Finding& a, const Finding& b) {
                          return a.file == b.file && a.line == b.line &&
                                 a.rule == b.rule;
                        }),
            out.end());
  return out;
}

}  // namespace latdiv::lint
