#include "bddfc/parser/parser.h"

#include <algorithm>
#include <cctype>
#include <deque>
#include <memory>
#include <utility>

#include "bddfc/base/faults.h"
#include "bddfc/obs/trace.h"

namespace bddfc {

namespace {

enum class TokKind {
  kIdent,     // lowercase-leading: predicate or constant
  kQuoted,    // "..." — predicate or constant with arbitrary name
  kVariable,  // uppercase-leading
  kArrow,     // -> or =>
  kComma,
  kLParen,
  kRParen,
  kPeriod,
  kColon,
  kQuery,     // ?-
  kExists,    // keyword 'exists'
  kEnd,
  kError,     // lexical error; the lexer keeps its status
};

/// One token. `text` views the input, or the lexer's side buffer for a
/// quoted name with escapes; either stays valid for the whole parse.
struct Token {
  TokKind kind = TokKind::kEnd;
  std::string_view text;
  int line = 0;
};

/// Pull lexer: each Lex() call scans one token, so no token vector is
/// built. After a lexical error every call returns kError and error()
/// holds the message.
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Token Lex() {
    if (!error_.ok()) return {TokKind::kError, {}, line_};
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
        continue;
      }
      if (c == '%' || c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
        continue;
      }
      const std::string_view one = text_.substr(pos_, 1);
      switch (c) {
        case ',':
          ++pos_;
          return {TokKind::kComma, one, line_};
        case '(':
          ++pos_;
          return {TokKind::kLParen, one, line_};
        case ')':
          ++pos_;
          return {TokKind::kRParen, one, line_};
        case '.':
          ++pos_;
          return {TokKind::kPeriod, one, line_};
        case ':':
          ++pos_;
          if (pos_ < text_.size() && text_[pos_] == '-') {
            // Prolog-style rule arrow is not supported to avoid ambiguity
            // with facts; keep ':' for the exists clause.
            return Fail("':-' is not supported; use '->'");
          }
          return {TokKind::kColon, one, line_};
        case '-':
        case '=':
          if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '>') {
            pos_ += 2;
            return {TokKind::kArrow, "->", line_};
          }
          return Fail("stray '" + std::string(1, c) + "'");
        case '?':
          if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '-') {
            pos_ += 2;
            return {TokKind::kQuery, "?-", line_};
          }
          return Fail("stray '?'");
        case '"':
          return LexQuoted();
        default:
          break;
      }
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
        const size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '_' || text_[pos_] == '\'')) {
          ++pos_;
        }
        const std::string_view word = text_.substr(start, pos_ - start);
        if (word == "exists") return {TokKind::kExists, word, line_};
        if (std::isupper(static_cast<unsigned char>(word[0]))) {
          return {TokKind::kVariable, word, line_};
        }
        return {TokKind::kIdent, word, line_};
      }
      return Fail("unexpected character '" + std::string(1, c) + "'");
    }
    return {TokKind::kEnd, {}, line_};
  }

  /// Lexes the rest of the input and returns its first lexical error (OK
  /// when there is none). A failed parse reports that error rather than
  /// its own, exactly as if the whole input had been lexed first.
  Status Drain() {
    while (true) {
      const TokKind kind = Lex().kind;
      if (kind == TokKind::kEnd) return Status::OK();
      if (kind == TokKind::kError) return error_;
    }
  }

 private:
  Token Fail(const std::string& what) {
    error_ = Status::InvalidArgument("line " + std::to_string(line_) + ": " +
                                     what);
    return {TokKind::kError, {}, line_};
  }

  /// Quoted name: any symbol whose spelling would not lex as a plain
  /// lowercase identifier (uppercase-leading constants, 'exists', …).
  /// Escapes: \" and \\. A name without escapes is a view of the input;
  /// one with escapes is decoded into the side buffer.
  Token LexQuoted() {
    ++pos_;  // opening quote
    const size_t start = pos_;
    bool escaped = false;
    bool closed = false;
    while (pos_ < text_.size()) {
      const char q = text_[pos_];
      if (q == '"') {
        closed = true;
        break;
      }
      if (q == '\\' && pos_ + 1 < text_.size() &&
          (text_[pos_ + 1] == '"' || text_[pos_ + 1] == '\\')) {
        escaped = true;
        pos_ += 2;
        continue;
      }
      if (q == '\n') break;  // unterminated on this line
      ++pos_;
    }
    if (!closed) return Fail("unterminated quoted name");
    const std::string_view raw = text_.substr(start, pos_ - start);
    ++pos_;  // closing quote
    if (raw.empty()) return Fail("empty quoted name");
    if (!escaped) return {TokKind::kQuoted, raw, line_};
    std::string& name = decoded_.emplace_back();
    for (size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] == '\\' && i + 1 < raw.size() &&
          (raw[i + 1] == '"' || raw[i + 1] == '\\')) {
        ++i;
      }
      name += raw[i];
    }
    return {TokKind::kQuoted, name, line_};
  }

  std::string_view text_;
  size_t pos_ = 0;
  int line_ = 1;
  Status error_;
  /// Decoded quoted names with escapes; a deque, so tokens viewing earlier
  /// entries stay valid as it grows.
  std::deque<std::string> decoded_;
};

/// Recursive-descent parser pulling tokens from the lexer with one token
/// of lookahead (Peek). A statement's atoms are parsed into flat reused
/// buffers and become Atoms only for a rule or a query; a fact's cells go
/// straight to a per-predicate buffer that ParseProgram appends to the
/// instance in one batch per predicate.
///
/// A program parse interns every name into its signature. A query parse
/// only reads its signature: a name the signature lacks gets a query-local
/// id past the signature's table, in order of first occurrence, and is
/// remembered so that InternLocals can give it that same id.
class Parser {
 public:
  /// A program parse, interning into `sig`.
  Parser(std::string_view text, Signature* sig) : Parser(text, *sig) {
    interning_ = sig;
  }
  /// A query parse, reading `sig` only.
  Parser(std::string_view text, const Signature& sig)
      : lexer_(text), sig_(sig) {
    tok_ = lexer_.Lex();
  }

  const Token& Peek() const { return tok_; }
  Token Next() { return std::exchange(tok_, lexer_.Lex()); }
  bool Accept(TokKind k) {
    if (tok_.kind != k) return false;
    tok_ = lexer_.Lex();
    return true;
  }
  Status Expect(TokKind k, const char* what) {
    if (!Accept(k)) {
      return Status::InvalidArgument("line " + std::to_string(Peek().line) +
                                     ": expected " + what + ", got '" +
                                     std::string(Peek().text) + "'");
    }
    return Status::OK();
  }

  /// The status a failed parse reports: the input's first lexical error
  /// if it has one anywhere, else `parse_error`.
  Status Fail(Status parse_error) {
    Status lexical = lexer_.Drain();
    return lexical.ok() ? parse_error : lexical;
  }

  /// Parses every statement into `program`, then appends the buffered
  /// facts to its instance.
  Status ParseAll(Program* program) {
    while (tok_.kind != TokKind::kEnd) {
      Status s = ParseStatement(program);
      if (!s.ok()) return Fail(std::move(s));
    }
    for (PredId p = 0; p < static_cast<PredId>(facts_.size()); ++p) {
      PendingFacts& f = facts_[p];
      if (f.rows == 0) continue;
      program->instance.AppendRows(p, f.cells.data(), f.rows);
      f = PendingFacts();
    }
    return Status::OK();
  }

  /// A query body: an atom list, one optional '.', then end of input.
  Result<ConjunctiveQuery> ParseQueryBody() {
    Status s = ParseAtomList();
    if (s.ok()) {
      Accept(TokKind::kPeriod);
      if (Peek().kind != TokKind::kEnd) {
        s = Status::InvalidArgument(
            "line " + std::to_string(Peek().line) +
            ": expected end of query, got '" + std::string(Peek().text) +
            "'");
      }
    }
    if (!s.ok()) return Fail(std::move(s));
    return ConjunctiveQuery(MakeAtoms(0, atoms_.size()));
  }

  /// Interns a query parse's query-local names into `sig`, the signature
  /// it read, in order, so each gets the id the parse gave it.
  void InternLocals(Signature* sig) const {
    for (const auto& [name, arity] : local_predicates_) {
      (void)sig->AddPredicate(name, arity);
    }
    for (std::string_view name : local_constants_) sig->AddConstant(name);
  }

 private:
  /// One parsed atom of the current statement; its arguments are
  /// cells_[begin, begin + arity).
  struct FlatAtom {
    PredId pred;
    size_t begin;
    size_t arity;
  };

  /// The facts of one predicate, in input order, not yet in the instance.
  struct PendingFacts {
    std::vector<TermId> cells;
    size_t rows = 0;
  };

  /// The id of constant `name`: interned, or for a query parse the
  /// signature's id or else a query-local one.
  TermId Constant(std::string_view name) {
    if (interning_ != nullptr) return interning_->AddConstant(name);
    if (Result<TermId> c = sig_.FindConstant(name); c.ok()) return c.value();
    const size_t i =
        std::find(local_constants_.begin(), local_constants_.end(), name) -
        local_constants_.begin();
    if (i == local_constants_.size()) local_constants_.push_back(name);
    return sig_.num_constants() + static_cast<TermId>(i);
  }

  /// The id of predicate `name` used with `arity`, resolved like
  /// Constant; a use with another arity than an earlier one, known or
  /// query-local, is Signature::ArityConflict.
  Result<PredId> Predicate(std::string_view name, int arity) {
    if (interning_ != nullptr) return interning_->AddPredicate(name, arity);
    PredId id;
    int was;
    if (Result<PredId> p = sig_.FindPredicate(name); p.ok()) {
      id = p.value();
      was = sig_.arity(id);
    } else {
      const size_t i =
          std::find_if(local_predicates_.begin(), local_predicates_.end(),
                       [name](const auto& e) { return e.first == name; }) -
          local_predicates_.begin();
      if (i == local_predicates_.size()) {
        local_predicates_.emplace_back(name, arity);
      }
      id = sig_.num_predicates() + static_cast<PredId>(i);
      was = local_predicates_[i].second;
    }
    if (was != arity) return Signature::ArityConflict(name, arity, was);
    return id;
  }

  /// Parses a term; variables scope over the current statement.
  Result<TermId> ParseTerm() {
    const Token t = Next();
    if (t.kind == TokKind::kVariable) {
      for (const auto& [name, v] : var_scope_) {
        if (name == t.text) return v;
      }
      const TermId v = MakeVar(next_var_++);
      var_scope_.emplace_back(t.text, v);
      return v;
    }
    if (t.kind == TokKind::kIdent || t.kind == TokKind::kQuoted) {
      return Constant(t.text);
    }
    return Status::InvalidArgument("line " + std::to_string(t.line) +
                                   ": expected term, got '" +
                                   std::string(t.text) + "'");
  }

  /// Parses one atom onto atoms_/cells_. The predicate is resolved after
  /// its arguments (its arity is their count); its name token stays valid
  /// meanwhile because token text never moves.
  Status ParseAtom() {
    const Token name = Next();
    if (name.kind != TokKind::kIdent && name.kind != TokKind::kQuoted) {
      return Status::InvalidArgument("line " + std::to_string(name.line) +
                                     ": expected predicate name, got '" +
                                     std::string(name.text) + "'");
    }
    const size_t begin = cells_.size();
    if (Accept(TokKind::kLParen)) {
      if (!Accept(TokKind::kRParen)) {
        while (true) {
          BDDFC_ASSIGN_OR_RETURN(TermId t, ParseTerm());
          cells_.push_back(t);
          if (Accept(TokKind::kRParen)) break;
          BDDFC_RETURN_NOT_OK(Expect(TokKind::kComma, "',' or ')'"));
        }
      }
    }
    const size_t arity = cells_.size() - begin;
    BDDFC_ASSIGN_OR_RETURN(PredId p,
                           Predicate(name.text, static_cast<int>(arity)));
    atoms_.push_back({p, begin, arity});
    return Status::OK();
  }

  Status ParseAtomList() {
    do {
      BDDFC_RETURN_NOT_OK(ParseAtom());
    } while (Accept(TokKind::kComma));
    return Status::OK();
  }

  Atom MakeAtom(const FlatAtom& a) const {
    const TermId* args = cells_.data() + a.begin;
    return Atom(a.pred, std::vector<TermId>(args, args + a.arity));
  }

  std::vector<Atom> MakeAtoms(size_t from, size_t to) const {
    std::vector<Atom> out;
    out.reserve(to - from);
    for (size_t i = from; i < to; ++i) out.push_back(MakeAtom(atoms_[i]));
    return out;
  }

  /// Parses one statement into `program`.
  Status ParseStatement(Program* program) {
    var_scope_.clear();
    atoms_.clear();
    cells_.clear();

    if (Accept(TokKind::kQuery)) {
      BDDFC_RETURN_NOT_OK(ParseAtomList());
      BDDFC_RETURN_NOT_OK(Expect(TokKind::kPeriod, "'.'"));
      program->queries.emplace_back(MakeAtoms(0, atoms_.size()));
      return Status::OK();
    }

    BDDFC_RETURN_NOT_OK(ParseAtomList());
    if (Accept(TokKind::kArrow)) {
      const size_t body_atoms = atoms_.size();
      // Rule. Optional 'exists V1, V2 :' clause before the head.
      std::vector<TermId> declared_existentials;
      if (Accept(TokKind::kExists)) {
        while (true) {
          BDDFC_ASSIGN_OR_RETURN(TermId v, ParseTerm());
          if (!IsVar(v)) {
            return Status::InvalidArgument(
                "line " + std::to_string(Peek().line) +
                ": 'exists' clause must list variables");
          }
          declared_existentials.push_back(v);
          if (!Accept(TokKind::kComma)) break;
        }
        BDDFC_RETURN_NOT_OK(Expect(TokKind::kColon, "':'"));
      }
      BDDFC_RETURN_NOT_OK(ParseAtomList());
      BDDFC_RETURN_NOT_OK(Expect(TokKind::kPeriod, "'.'"));
      Rule rule(MakeAtoms(0, body_atoms), MakeAtoms(body_atoms, atoms_.size()));
      // Sanity: declared existentials must indeed be existential.
      std::vector<TermId> body_vars = rule.BodyVariables();
      for (TermId v : declared_existentials) {
        if (std::find(body_vars.begin(), body_vars.end(), v) !=
            body_vars.end()) {
          return Status::InvalidArgument(
              "declared existential variable also occurs in the body of: " +
              rule.ToString(sig_));
        }
      }
      return program->theory.AddRule(std::move(rule));
    }

    // Fact list: each fact's constants join the domain now, in input
    // order; its cells wait in its predicate's buffer.
    BDDFC_RETURN_NOT_OK(Expect(TokKind::kPeriod, "'.' or '->'"));
    for (const FlatAtom& a : atoms_) {
      const TermId* args = cells_.data() + a.begin;
      if (!std::all_of(args, args + a.arity, IsConst)) {
        return Status::InvalidArgument("fact is not ground: " +
                                       MakeAtom(a).ToString(sig_));
      }
      if (static_cast<size_t>(a.pred) >= facts_.size()) {
        facts_.resize(a.pred + 1);
      }
      PendingFacts& f = facts_[a.pred];
      f.cells.insert(f.cells.end(), args, args + a.arity);
      ++f.rows;
      for (const TermId* c = args; c != args + a.arity; ++c) {
        program->instance.AddDomainElement(*c);
      }
    }
    return Status::OK();
  }

  Lexer lexer_;
  Token tok_;  // the lookahead
  const Signature& sig_;
  Signature* interning_ = nullptr;  // sig_, for a program parse
  /// A query parse's names missing from sig_, in order of first
  /// occurrence: entry i has id sig_.num_predicates() (num_constants())
  /// + i. Views of the input or the lexer's buffer.
  std::vector<std::pair<std::string_view, int>> local_predicates_;
  std::vector<std::string_view> local_constants_;
  int32_t next_var_ = 0;
  std::vector<std::pair<std::string_view, TermId>> var_scope_;
  std::vector<FlatAtom> atoms_;
  std::vector<TermId> cells_;
  std::vector<PendingFacts> facts_;  // indexed by PredId
};

}  // namespace

Result<Program> ParseProgram(std::string_view text, SignaturePtr sig,
                             FaultRegistry* faults) {
  // Chaos site (fail-stop; callers surface kInternal as an ordinary
  // error). Sessions pass their own registry; without one there is no
  // site. One relaxed load when chaos is off.
  if (faults != nullptr && faults->enabled() &&
      faults->Hit(faults::kParserParse).fired) {
    return Status(StatusCode::kInternal, "injected fault at parser.parse");
  }
  obs::TraceSpan span("parser.parse");
  if (sig == nullptr) sig = std::make_shared<Signature>();
  const Signature::Mark mark = sig->TakeMark();
  Status parsed = Status::OK();
  {
    Program program(sig);
    Parser parser(text, sig.get());
    parsed = parser.ParseAll(&program);
    if (parsed.ok()) {
      if (span.id() != 0) {
        span.set_detail('b' + std::to_string(text.size()) + " f" +
                        std::to_string(program.instance.NumFacts()) + " r" +
                        std::to_string(program.theory.size()));
      }
      return program;
    }
  }
  // A failed parse leaves the signature as it found it: the partial
  // program is gone, so the names its statements interned can go too.
  sig->RollbackTo(mark);
  return parsed;
}

Result<ConjunctiveQuery> ParseQuery(std::string_view text,
                                    const Signature& sig) {
  return Parser(text, sig).ParseQueryBody();
}

Result<ConjunctiveQuery> ParseQuery(std::string_view text, Signature* sig) {
  Parser parser(text, std::as_const(*sig));
  Result<ConjunctiveQuery> q = parser.ParseQueryBody();
  if (q.ok()) parser.InternLocals(sig);
  return q;
}

}  // namespace bddfc
