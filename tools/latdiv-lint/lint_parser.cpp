#include "lint_parser.hpp"

#include <algorithm>
#include <cctype>
#include <cstddef>

namespace latdiv::lint {
namespace {

bool is_annotation_macro(const std::string& t) {
  return t.rfind("LATDIV_GUARDED_BY", 0) == 0 ||
         t.rfind("LATDIV_PT_GUARDED_BY", 0) == 0;
}

// Modifier tokens stripped from declaration heads.
bool is_decl_modifier(const std::string& t) {
  return t == "virtual" || t == "inline" || t == "explicit" ||
         t == "mutable" || t == "extern" || t == "register" ||
         t == "typename" || t == "struct" || t == "class" || t == "final" ||
         t == "consteval" || t == "constinit";
}

// First tokens that may lead a *local* declaration (function scope only;
// class/namespace scope accepts any identifier).  Keeps expression
// statements from being misread as declarations.
bool is_type_lead(const std::string& t) {
  return t == "const" || t == "static" || t == "constexpr" ||
         t == "thread_local" || t == "auto" || t == "float" ||
         t == "double" || t == "unsigned" || t == "signed" || t == "long" ||
         t == "short" || t == "bool" || t == "int" || t == "char" ||
         t == "std";
}

class Parser {
 public:
  explicit Parser(FileModel& m) : m_(m), t_(m.tokens), n_(m.tokens.size()) {}

  void run() {
    while (i_ < n_) step();
  }

 private:
  struct Scope {
    enum class Kind { kNamespace, kClass, kFunction, kBlock };
    Kind kind;
    std::string name;
  };

  FileModel& m_;
  const std::vector<Token>& t_;
  std::size_t n_;
  std::size_t i_ = 0;
  std::vector<Scope> scopes_;

  // --- token helpers -----------------------------------------------------
  const std::string& tok(std::size_t k) const {
    static const std::string kEmpty;
    return k < n_ ? t_[k].text : kEmpty;
  }
  bool is_ident(std::size_t k) const {
    return k < n_ && t_[k].kind == Token::Kind::kIdent;
  }
  int line(std::size_t k) const { return k < n_ ? t_[k].line : 0; }

  /// Innermost class scope name ("" if none).
  std::string current_class() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::Kind::kClass) return it->name;
      if (it->kind == Scope::Kind::kFunction) break;
    }
    return {};
  }
  bool at_type_scope() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::Kind::kClass ||
          it->kind == Scope::Kind::kNamespace) {
        return true;
      }
      if (it->kind == Scope::Kind::kFunction ||
          it->kind == Scope::Kind::kBlock) {
        return false;
      }
    }
    return true;  // file scope
  }

  /// Index just past the group opened by the bracket at `k` (which must be
  /// "(", "{", or "["); angle brackets are balanced alongside so templates
  /// containing parens do not desynchronize.
  std::size_t skip_group(std::size_t k) const {
    const std::string& open = tok(k);
    const std::string close = open == "(" ? ")" : open == "{" ? "}" : "]";
    int depth = 0;
    while (k < n_) {
      const std::string& s = tok(k);
      if (s == open) {
        ++depth;
      } else if (s == close) {
        if (--depth == 0) return k + 1;
      }
      ++k;
    }
    return n_;
  }

  /// Skip a balanced template argument list starting at "<".
  std::size_t skip_angles(std::size_t k) const {
    int depth = 0;
    while (k < n_) {
      const std::string& s = tok(k);
      if (s == "<") {
        ++depth;
      } else if (s == ">") {
        if (--depth == 0) return k + 1;
      } else if (s == ";" || s == "{") {
        return k;  // not a template after all; bail out
      }
      ++k;
    }
    return n_;
  }

  std::size_t skip_to_semi(std::size_t k) const {
    while (k < n_) {
      const std::string& s = tok(k);
      if (s == ";") return k + 1;
      if (s == "(" || s == "{" || s == "[") {
        k = skip_group(k);
        continue;
      }
      if (s == "}") return k;  // malformed; stop at scope close
      ++k;
    }
    return n_;
  }

  // --- grammar fragments -------------------------------------------------
  void step() {
    const std::string& s = tok(i_);
    if (s == "namespace") {
      parse_namespace();
    } else if ((s == "class" || s == "struct") && tok(i_ - 1) != "enum") {
      parse_class();
    } else if (s == "enum") {
      parse_enum();
    } else if (s == "using") {
      parse_using();
    } else if (s == "typedef") {
      parse_typedef();
    } else if (s == "template") {
      ++i_;
      if (tok(i_) == "<") i_ = skip_angles(i_);
    } else if (s == "friend") {
      skip_friend();
    } else if (s == "for") {
      parse_for();
    } else if ((s == "public" || s == "private" || s == "protected") &&
               tok(i_ + 1) == ":") {
      i_ += 2;
    } else if (s == "{") {
      scopes_.push_back({Scope::Kind::kBlock, ""});
      ++i_;
    } else if (s == "}") {
      if (!scopes_.empty()) scopes_.pop_back();
      ++i_;
    } else if (s == "~") {
      skip_destructor();
    } else if (s == ";") {
      ++i_;
    } else if (at_type_scope()) {
      parse_declaration(/*require_type_lead=*/false);
    } else {
      parse_statement();
    }
  }

  void parse_namespace() {
    ++i_;
    while (is_ident(i_) || tok(i_) == "::") ++i_;
    if (tok(i_) == "{") {
      scopes_.push_back({Scope::Kind::kNamespace, ""});
      ++i_;
    } else {
      i_ = skip_to_semi(i_);  // namespace alias / declaration
    }
  }

  void parse_class() {
    ++i_;
    // Skip attributes and annotation-like macros before the name.
    while (i_ < n_) {
      if (tok(i_) == "[[") {
        while (i_ < n_ && tok(i_) != "]]") ++i_;
        ++i_;
      } else if (is_ident(i_) && tok(i_).rfind("LATDIV_", 0) == 0) {
        ++i_;
        if (tok(i_) == "(") i_ = skip_group(i_);
      } else {
        break;
      }
    }
    std::string name;
    if (is_ident(i_)) {
      name = tok(i_);
      ++i_;
    }
    if (tok(i_) == "final") ++i_;
    if (tok(i_) == ";") {  // forward declaration
      ++i_;
      return;
    }
    if (tok(i_) == ":") {  // base clause
      while (i_ < n_ && tok(i_) != "{") {
        if (tok(i_) == "<") {
          i_ = skip_angles(i_);
          continue;
        }
        if (tok(i_) == ";") return;  // malformed
        ++i_;
      }
    }
    if (tok(i_) == "{") {
      if (!name.empty()) m_.classes.push_back(name);
      scopes_.push_back({Scope::Kind::kClass, name});
      ++i_;
      return;
    }
    // `class X y;` style variable of class type — rewind-free fallback.
    i_ = skip_to_semi(i_);
  }

  void parse_enum() {
    ++i_;
    if (tok(i_) == "class" || tok(i_) == "struct") ++i_;
    if (is_ident(i_)) ++i_;
    if (tok(i_) == ":") {  // underlying type
      while (i_ < n_ && tok(i_) != "{" && tok(i_) != ";") ++i_;
    }
    if (tok(i_) == "{") i_ = skip_group(i_);
    if (tok(i_) == ";") ++i_;
  }

  void parse_using() {
    ++i_;
    if (tok(i_) == "namespace") {
      i_ = skip_to_semi(i_);
      return;
    }
    if (is_ident(i_) && tok(i_ + 1) == "=") {
      std::string name = tok(i_);
      std::size_t k = i_ + 2;
      std::string type;
      while (k < n_ && tok(k) != ";") {
        if (!type.empty()) type += ' ';
        type += tok(k);
        ++k;
      }
      m_.aliases[name] = type;
      i_ = (k < n_) ? k + 1 : n_;
      return;
    }
    i_ = skip_to_semi(i_);  // using-declaration (Base::member)
  }

  void parse_typedef() {
    // typedef TYPE NAME;  (name is the last identifier before ';')
    std::size_t start = ++i_;
    std::size_t k = start;
    std::size_t last_ident = n_;
    while (k < n_ && tok(k) != ";") {
      if (tok(k) == "<") {
        k = skip_angles(k);
        continue;
      }
      if (is_ident(k)) last_ident = k;
      ++k;
    }
    if (last_ident != n_ && last_ident > start) {
      std::string type;
      for (std::size_t j = start; j < last_ident; ++j) {
        if (!type.empty()) type += ' ';
        type += tok(j);
      }
      m_.aliases[tok(last_ident)] = type;
    }
    i_ = (k < n_) ? k + 1 : n_;
  }

  void skip_friend() {
    // `friend class X;` or an inline friend function — skip declaration,
    // including a brace body if one is attached.
    while (i_ < n_) {
      const std::string& s = tok(i_);
      if (s == ";") {
        ++i_;
        return;
      }
      if (s == "(") {
        i_ = skip_group(i_);
        continue;
      }
      if (s == "{") {
        i_ = skip_group(i_);
        if (tok(i_) == ";") ++i_;
        return;
      }
      ++i_;
    }
  }

  void skip_destructor() {
    ++i_;  // "~"
    if (is_ident(i_)) ++i_;
    if (tok(i_) == "(") i_ = skip_group(i_);
    // "= default;" / ";" handled by the main loop; a body brace is pushed
    // as a block scope naturally.
    while (i_ < n_ && tok(i_) != ";" && tok(i_) != "{") ++i_;
    if (tok(i_) == ";") ++i_;
  }

  void parse_for() {
    std::size_t kw = i_;
    ++i_;
    if (tok(i_) != "(") return;
    std::size_t open = i_;
    std::size_t close = skip_group(open) - 1;  // index of ")"
    // Classify: range-for has a top-level ":" inside the parens.
    std::size_t colon = n_;
    {
      int pd = 0, ad = 0, bd = 0;
      for (std::size_t k = open + 1; k < close; ++k) {
        const std::string& s = tok(k);
        if (s == "(") ++pd;
        else if (s == ")") --pd;
        else if (s == "[") ++bd;
        else if (s == "]") --bd;
        else if (s == "<") ++ad;
        else if (s == ">") ad = std::max(0, ad - 1);
        else if (s == ";") { colon = n_; break; }  // classic for
        else if (s == ":" && pd == 0 && ad == 0 && bd == 0 &&
                 tok(k + 1) != ":" && tok(k - 1) != ":") {
          colon = k;
          break;
        }
      }
    }
    LoopSite loop;
    loop.file = m_.path;
    loop.line = line(kw);
    if (colon != n_) {
      // Range-for: trailing identifier of the iterated expression.
      std::size_t end = close;  // exclusive
      std::size_t last = end - 1;
      if (tok(last) == ")") {
        // Expression ends in a call: find its open paren, name precedes it.
        int depth = 0;
        std::size_t k = last;
        for (;; --k) {
          if (tok(k) == ")") ++depth;
          else if (tok(k) == "(") {
            if (--depth == 0) break;
          }
          if (k == colon + 1) break;
        }
        if (k > colon + 1 && is_ident(k - 1)) {
          loop.iter_name = tok(k - 1);
          loop.iter_is_call = true;
        }
      } else if (is_ident(last)) {
        loop.iter_name = tok(last);
      }
    } else {
      // Iterator loop: look for X.begin() / X->cbegin() in the init part.
      for (std::size_t k = open + 1; k + 1 < close; ++k) {
        if ((tok(k) == "begin" || tok(k) == "cbegin") &&
            tok(k + 1) == "(" &&
            (tok(k - 1) == "." || tok(k - 1) == "->") && is_ident(k - 2)) {
          loop.iter_name = tok(k - 2);
          break;
        }
      }
    }
    i_ = close + 1;
    if (!loop.iter_name.empty()) {
      loop.body_begin = i_;
      loop.body_end =
          (tok(i_) == "{") ? skip_group(i_) : skip_to_semi(i_);
      m_.loops.push_back(std::move(loop));
    }
    // The body itself is walked by the main loop (nested decls & loops).
  }

  void parse_statement() {
    const std::string& s = tok(i_);
    if (s == "if" || s == "while" || s == "switch") {
      ++i_;
      if (tok(i_) == "(") i_ = skip_group(i_);
      return;  // body brace / statement handled by main loop
    }
    if (s == "do" || s == "else" || s == "try") {
      ++i_;
      return;
    }
    if (s == "return" || s == "case" || s == "goto" || s == "throw" ||
        s == "break" || s == "continue" || s == "default" || s == "delete") {
      i_ = skip_to_semi(i_);
      return;
    }
    if (is_ident(i_) && is_type_lead(s)) {
      parse_declaration(/*require_type_lead=*/true);
      return;
    }
    if (is_ident(i_) &&
        (m_.aliases.count(s) != 0 ||
         std::find(m_.classes.begin(), m_.classes.end(), s) !=
             m_.classes.end())) {
      parse_declaration(/*require_type_lead=*/true);
      return;
    }
    // Expression statement: skip to ';' but stop before '{' / '}' so
    // lambdas and compound statements keep scope tracking intact.
    while (i_ < n_) {
      const std::string& u = tok(i_);
      if (u == ";") {
        ++i_;
        return;
      }
      if (u == "{" || u == "}") return;
      if (u == "(" || u == "[") {
        i_ = skip_group(i_);
        continue;
      }
      ++i_;
    }
  }

  /// Parse one declaration statement at the current position: either a
  /// variable declaration (recorded) or a function declaration/definition
  /// (signature recorded; body left to the main loop).  Falls back to
  /// skipping the statement when the shape is not recognized.
  void parse_declaration(bool require_type_lead) {
    std::size_t start = i_;
    bool is_static = false;
    bool annotated = false;
    bool saw_operator = false;

    std::vector<std::size_t> head;  // indices of type/name tokens
    std::size_t k = i_;
    std::string term;
    while (k < n_) {
      const std::string& s = tok(k);
      if (s == ";" || s == "=" || s == "{" || s == "(") {
        term = s;
        break;
      }
      if (s == "}" || s == ":" || s == "case") {
        // Bit-field, label, or something we do not model: skip statement.
        i_ = skip_to_semi(k);
        if (i_ <= start) i_ = start + 1;
        return;
      }
      if (s == "[[") {
        while (k < n_ && tok(k) != "]]") ++k;
        ++k;
        continue;
      }
      if (s == "static" || s == "thread_local") {
        is_static = true;
        ++k;
        continue;
      }
      if (is_decl_modifier(s)) {
        ++k;
        continue;
      }
      if (is_annotation_macro(s)) {
        annotated = true;
        ++k;
        if (tok(k) == "(") k = skip_group(k);
        continue;
      }
      if (s == "operator") {
        saw_operator = true;
        ++k;
        while (k < n_ && tok(k) != "(") ++k;  // consume the operator symbol
        continue;
      }
      if (s == "<") {
        std::size_t after = skip_angles(k);
        for (std::size_t j = k; j < after; ++j) head.push_back(j);
        k = after;
        continue;
      }
      if (is_ident(k) || s == "::" || s == "*" || s == "&" || s == "&&" ||
          s == "," || s == "[" || s == "]" || s == "." || s == "->") {
        if (s == "." || s == "->") {
          // Member access: expression, not a declaration.
          i_ = skip_to_semi(start);
          if (i_ <= start) i_ = start + 1;
          return;
        }
        if (s == "[") {
          k = skip_group(k);  // array extent
          continue;
        }
        head.push_back(k);
        ++k;
        continue;
      }
      // Unrecognized token in a declaration head: treat as expression.
      i_ = skip_to_semi(start);
      if (i_ <= start) i_ = start + 1;
      return;
    }
    if (k >= n_) {
      i_ = n_;
      return;
    }

    if (term == "(") {
      if (!at_type_scope()) {
        // Inside a function body: `Type name(args);` is a declaration when
        // the identifier before '(' is a declarator (not part of a
        // qualified call chain like `std::sort(`).
        if (head.size() >= 2 && is_ident(head.back()) &&
            tok(head[head.size() - 2]) != "::") {
          record_var(head, head.back(), is_static, annotated);
        }
        i_ = skip_to_semi(k);
        return;
      }
      parse_function(start, head, k, saw_operator);
      return;
    }

    // Variable declaration: last identifier in head is the name.
    std::size_t name_idx = n_;
    for (auto it = head.rbegin(); it != head.rend(); ++it) {
      if (is_ident(*it) && !is_annotation_macro(tok(*it))) {
        name_idx = *it;
        break;
      }
    }
    (void)require_type_lead;
    if (name_idx == n_ || head.size() < 2) {
      i_ = skip_to_semi(k);
      return;
    }
    record_var(head, name_idx, is_static, annotated);
    // Advance past the initializer / to the semicolon.
    if (term == "=" || term == "{") {
      i_ = skip_to_semi(k);
    } else {
      i_ = k + 1;
    }
  }

  /// Record a variable declaration whose head token indices are `head` and
  /// whose declarator name sits at `name_idx`.
  void record_var(const std::vector<std::size_t>& head, std::size_t name_idx,
                  bool is_static, bool annotated) {
    VarDecl v;
    v.name = tok(name_idx);
    v.file = m_.path;
    v.line = line(name_idx);
    v.is_static = is_static;
    v.annotated = annotated;
    bool saw_const = false;
    bool saw_constexpr = false;
    for (std::size_t idx : head) {
      if (idx == name_idx) continue;
      const std::string& s = tok(idx);
      if (!v.type.empty()) v.type += ' ';
      v.type += s;
      if (s == "*") {
        saw_const = false;  // const before '*' binds to the pointee
      } else if (s == "const") {
        saw_const = true;
      } else if (s == "constexpr") {
        saw_constexpr = true;
      }
    }
    v.is_const = saw_constexpr || saw_const;
    if (!v.type.empty()) m_.vars.push_back(std::move(v));
  }

  void parse_function(std::size_t start, const std::vector<std::size_t>& head,
                      std::size_t paren, bool saw_operator) {
    FuncDecl f;
    f.file = m_.path;
    f.line = line(start);
    f.klass = current_class();
    // Name: last identifier of the head; preceding "X ::" chain overrides
    // the scope class (out-of-line definitions).
    std::size_t name_idx = n_;
    for (auto it = head.rbegin(); it != head.rend(); ++it) {
      if (is_ident(*it)) {
        name_idx = *it;
        break;
      }
    }
    if (saw_operator) {
      f.name = "operator";
    } else if (name_idx == n_) {
      i_ = skip_past_function(paren);
      return;
    } else {
      f.name = tok(name_idx);
      // Macro invocations at class/namespace scope (static_assert,
      // ALL_CAPS macros) are not functions; skip without recording.
      bool macro_like = f.name == "static_assert";
      if (!macro_like) {
        macro_like = true;
        for (char c : f.name) {
          if (!(std::isupper(static_cast<unsigned char>(c)) || c == '_' ||
                std::isdigit(static_cast<unsigned char>(c)))) {
            macro_like = false;
            break;
          }
        }
      }
      if (macro_like) {
        i_ = skip_to_semi(paren);
        return;
      }
      // Everything before the (optionally "Class ::"-qualified) name is
      // the return type.
      std::size_t rt_end = name_idx;
      if (name_idx >= 2 && tok(name_idx - 1) == "::" &&
          is_ident(name_idx - 2)) {
        f.klass = tok(name_idx - 2);
        rt_end = name_idx - 2;
      }
      for (std::size_t idx : head) {
        if (idx >= rt_end) break;
        if (!f.return_type.empty()) f.return_type += ' ';
        f.return_type += tok(idx);
      }
    }
    // Parameters.
    std::size_t close = skip_group(paren) - 1;
    std::size_t p = paren + 1;
    while (p < close) {
      std::size_t q = p;
      int ad = 0, pd = 0;
      std::vector<std::size_t> part;
      while (q < close) {
        const std::string& s = tok(q);
        if (s == "<") ++ad;
        else if (s == ">") ad = std::max(0, ad - 1);
        else if (s == "(") ++pd;
        else if (s == ")") --pd;
        else if (s == "," && ad == 0 && pd == 0) break;
        part.push_back(q);
        ++q;
      }
      if (!part.empty()) {
        // Drop a default argument.
        std::vector<std::size_t> sig;
        for (std::size_t idx : part) {
          if (tok(idx) == "=") break;
          sig.push_back(idx);
        }
        Param prm;
        std::size_t pname = n_;
        if (!sig.empty() && is_ident(sig.back())) {
          pname = sig.back();
          prm.name = tok(pname);
        }
        for (std::size_t idx : sig) {
          if (idx == pname) continue;
          if (!prm.type.empty()) prm.type += ' ';
          prm.type += tok(idx);
        }
        if (prm.type.empty() && pname != n_) {
          prm.type = prm.name;  // unnamed parameter: lone token is the type
          prm.name.clear();
        }
        if (!prm.type.empty() && prm.type != "void") {
          // Record the parameter as a typed variable too (loop-name
          // resolution inside the body).
          if (!prm.name.empty()) {
            VarDecl v;
            v.name = prm.name;
            v.type = prm.type;
            v.file = m_.path;
            v.line = line(sig.front());
            m_.vars.push_back(std::move(v));
          }
          f.params.push_back(std::move(prm));
        }
      }
      p = q + 1;
    }
    m_.funcs.push_back(std::move(f));
    i_ = skip_past_function(paren);
  }

  /// Advance past a function's qualifiers / ctor-init-list up to (but not
  /// into) its body brace, or past the ';' of a pure declaration.
  std::size_t skip_past_function(std::size_t paren) {
    std::size_t k = skip_group(paren);  // past ")"
    bool in_init_list = false;
    bool prev_ident = false;
    while (k < n_) {
      const std::string& s = tok(k);
      if (s == ";") return k + 1;
      if (s == ":") in_init_list = true;
      if (s == "{") {
        // In a ctor-init-list, `member{...}` brace-inits are groups; the
        // body brace follows ")" or "}" instead of an identifier.
        if (in_init_list && prev_ident) {
          k = skip_group(k);
          prev_ident = false;
          continue;
        }
        return k;  // body: main loop pushes a block scope
      }
      if (s == "(") {  // ctor-init-list member initializer / noexcept(...)
        k = skip_group(k);
        prev_ident = false;
        continue;
      }
      if (s == "<") {
        k = skip_angles(k);
        prev_ident = false;
        continue;
      }
      prev_ident = is_ident(k);
      ++k;
    }
    return n_;
  }
};

}  // namespace

void parse(FileModel& m) { Parser(m).run(); }

}  // namespace latdiv::lint
