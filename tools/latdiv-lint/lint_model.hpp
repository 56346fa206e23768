// latdiv-lint — data model shared by the lexer, parser, and rules.
//
// The analyzer is deliberately *lightweight*: it lexes real C++ tokens and
// recovers just enough structure (scopes, class members, function
// signatures, loops, type aliases) to make the determinism and
// observer-purity rules scope- and type-aware, without a full C++ frontend.
// Everything it knows about a translation unit lives in a FileModel; the
// rules run over the pooled models of every analyzed file, so a member
// declared in one header is recognized when iterated in any .cpp.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace latdiv::lint {

struct Token {
  enum class Kind { kIdent, kNumber, kString, kChar, kPunct };
  Kind kind = Kind::kPunct;
  std::string text;
  int line = 0;
};

/// One comment, attributed to the line it starts on (block comments too).
struct Comment {
  int line = 0;
  std::string text;
};

/// A `// lint: <directive>` suppression.  `rule` is the canonical rule id
/// the directive maps to ("" for directives that name no known rule).
struct Suppression {
  int line = 0;
  std::string directive;  ///< as written, e.g. "wall-clock-ok"
  std::string rule;       ///< canonical id, e.g. "wall-clock"
  bool used = false;
};

/// A variable declaration the parser recovered: class member, static,
/// namespace-scope global, function parameter, or (type-led) local.
struct VarDecl {
  std::string name;
  std::string type;    ///< space-joined type tokens, aliases pre-expansion
  std::string file;
  int line = 0;
  bool is_static = false;  ///< `static` or `thread_local` storage
  bool is_const = false;   ///< the variable itself is immutable
  bool annotated = false;  ///< carries LATDIV_GUARDED_BY / LATDIV_PT_GUARDED_BY
};

struct Param {
  std::string type;
  std::string name;
};

/// A function declaration or definition (member or free).
struct FuncDecl {
  std::string name;
  std::string klass;  ///< enclosing class, or qualifier of out-of-line def
  std::string file;
  int line = 0;
  std::string return_type;
  std::vector<Param> params;
};

/// A `for` loop: range-for (`for (x : expr)`) or an iterator loop whose
/// init calls `.begin()` / `.cbegin()`.  `iter_name` is the trailing
/// identifier of the iterated expression — a variable name, or a function
/// name when the expression ends in a call (accessor iteration).
struct LoopSite {
  std::string file;
  int line = 0;
  std::string iter_name;
  bool iter_is_call = false;
  std::size_t body_begin = 0;  ///< token index range of the loop body
  std::size_t body_end = 0;    ///< exclusive
};

struct FileModel {
  std::string path;
  std::vector<Token> tokens;
  std::vector<Comment> comments;
  std::vector<Suppression> sups;
  std::vector<VarDecl> vars;
  std::vector<FuncDecl> funcs;
  std::vector<LoopSite> loops;
  std::vector<std::string> classes;            ///< classes defined here
  std::map<std::string, std::string> aliases;  ///< using/typedef name -> type
};

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

}  // namespace latdiv::lint
