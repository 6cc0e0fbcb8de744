#include "bddfc/parser/parser.h"

#include <cctype>
#include <memory>
#include <unordered_map>

#include "bddfc/base/faults.h"

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
};

struct Token {
  TokKind kind;
  std::string text;
  int line = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Result<std::vector<Token>> Run() {
    std::vector<Token> out;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
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
      if (c == ',') {
        out.push_back({TokKind::kComma, ",", line_});
        ++pos_;
        continue;
      }
      if (c == '(') {
        out.push_back({TokKind::kLParen, "(", line_});
        ++pos_;
        continue;
      }
      if (c == ')') {
        out.push_back({TokKind::kRParen, ")", line_});
        ++pos_;
        continue;
      }
      if (c == '.') {
        out.push_back({TokKind::kPeriod, ".", line_});
        ++pos_;
        continue;
      }
      if (c == ':') {
        ++pos_;
        if (pos_ < text_.size() && text_[pos_] == '-') {
          // Prolog-style rule arrow is not supported to avoid ambiguity
          // with facts; keep ':' for the exists clause.
          return Status::InvalidArgument("line " + std::to_string(line_) +
                                         ": ':-' is not supported; use '->'");
        }
        out.push_back({TokKind::kColon, ":", line_});
        continue;
      }
      if (c == '-' || c == '=') {
        if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '>') {
          out.push_back({TokKind::kArrow, "->", line_});
          pos_ += 2;
          continue;
        }
        return Status::InvalidArgument("line " + std::to_string(line_) +
                                       ": stray '" + std::string(1, c) + "'");
      }
      if (c == '?') {
        if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '-') {
          out.push_back({TokKind::kQuery, "?-", line_});
          pos_ += 2;
          continue;
        }
        return Status::InvalidArgument("line " + std::to_string(line_) +
                                       ": stray '?'");
      }
      if (c == '"') {
        // Quoted name: any symbol whose spelling would not lex as a plain
        // lowercase identifier (uppercase-leading constants, 'exists', …).
        // Escapes: \" and \\.
        ++pos_;
        std::string name;
        bool closed = false;
        while (pos_ < text_.size()) {
          char q = text_[pos_];
          if (q == '"') {
            ++pos_;
            closed = true;
            break;
          }
          if (q == '\\' && pos_ + 1 < text_.size() &&
              (text_[pos_ + 1] == '"' || text_[pos_ + 1] == '\\')) {
            name += text_[pos_ + 1];
            pos_ += 2;
            continue;
          }
          if (q == '\n') break;  // unterminated on this line
          name += q;
          ++pos_;
        }
        if (!closed) {
          return Status::InvalidArgument("line " + std::to_string(line_) +
                                         ": unterminated quoted name");
        }
        if (name.empty()) {
          return Status::InvalidArgument("line " + std::to_string(line_) +
                                         ": empty quoted name");
        }
        out.push_back({TokKind::kQuoted, std::move(name), line_});
        continue;
      }
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
        size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '_' || text_[pos_] == '\'')) {
          ++pos_;
        }
        std::string word(text_.substr(start, pos_ - start));
        if (word == "exists") {
          out.push_back({TokKind::kExists, word, line_});
        } else if (std::isupper(static_cast<unsigned char>(word[0]))) {
          out.push_back({TokKind::kVariable, word, line_});
        } else {
          out.push_back({TokKind::kIdent, word, line_});
        }
        continue;
      }
      return Status::InvalidArgument("line " + std::to_string(line_) +
                                     ": unexpected character '" +
                                     std::string(1, c) + "'");
    }
    out.push_back({TokKind::kEnd, "", line_});
    return out;
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
  int line_ = 1;
};

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  Parser(std::vector<Token> toks, Signature* sig, int32_t* next_var)
      : toks_(std::move(toks)), sig_(sig), next_var_(next_var) {}

  const Token& Peek() const { return toks_[idx_]; }
  Token Next() { return toks_[idx_++]; }
  bool Accept(TokKind k) {
    if (Peek().kind == k) {
      ++idx_;
      return true;
    }
    return false;
  }
  Status Expect(TokKind k, const char* what) {
    if (!Accept(k)) {
      return Status::InvalidArgument("line " + std::to_string(Peek().line) +
                                     ": expected " + what + ", got '" +
                                     Peek().text + "'");
    }
    return Status::OK();
  }

  /// Parses a term; variables scope over the current statement.
  Result<TermId> ParseTerm() {
    Token t = Next();
    if (t.kind == TokKind::kVariable) {
      auto it = var_scope_.find(t.text);
      if (it != var_scope_.end()) return it->second;
      TermId v = MakeVar((*next_var_)++);
      var_scope_.emplace(t.text, v);
      return v;
    }
    if (t.kind == TokKind::kIdent || t.kind == TokKind::kQuoted) {
      return sig_->AddConstant(t.text);
    }
    return Status::InvalidArgument("line " + std::to_string(t.line) +
                                   ": expected term, got '" + t.text + "'");
  }

  Result<Atom> ParseAtom() {
    Token name = Next();
    if (name.kind != TokKind::kIdent && name.kind != TokKind::kQuoted) {
      return Status::InvalidArgument("line " + std::to_string(name.line) +
                                     ": expected predicate name, got '" +
                                     name.text + "'");
    }
    std::vector<TermId> args;
    if (Accept(TokKind::kLParen)) {
      if (!Accept(TokKind::kRParen)) {
        while (true) {
          BDDFC_ASSIGN_OR_RETURN(TermId t, ParseTerm());
          args.push_back(t);
          if (Accept(TokKind::kRParen)) break;
          BDDFC_RETURN_NOT_OK(Expect(TokKind::kComma, "',' or ')'"));
        }
      }
    }
    BDDFC_ASSIGN_OR_RETURN(
        PredId p, sig_->AddPredicate(name.text, static_cast<int>(args.size())));
    return Atom(p, std::move(args));
  }

  Result<std::vector<Atom>> ParseAtomList() {
    std::vector<Atom> atoms;
    while (true) {
      BDDFC_ASSIGN_OR_RETURN(Atom a, ParseAtom());
      atoms.push_back(std::move(a));
      if (!Accept(TokKind::kComma)) break;
    }
    return atoms;
  }

  /// Parses one statement into `program`. Returns false at end of input.
  Result<bool> ParseStatement(Program* program) {
    var_scope_.clear();
    if (Peek().kind == TokKind::kEnd) return false;

    if (Accept(TokKind::kQuery)) {
      BDDFC_ASSIGN_OR_RETURN(std::vector<Atom> atoms, ParseAtomList());
      BDDFC_RETURN_NOT_OK(Expect(TokKind::kPeriod, "'.'"));
      program->queries.emplace_back(std::move(atoms));
      return true;
    }

    BDDFC_ASSIGN_OR_RETURN(std::vector<Atom> first, ParseAtomList());
    if (Accept(TokKind::kArrow)) {
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
      BDDFC_ASSIGN_OR_RETURN(std::vector<Atom> head, ParseAtomList());
      BDDFC_RETURN_NOT_OK(Expect(TokKind::kPeriod, "'.'"));
      Rule rule(std::move(first), std::move(head));
      // Sanity: declared existentials must indeed be existential.
      std::vector<TermId> body_vars = rule.BodyVariables();
      for (TermId v : declared_existentials) {
        if (std::find(body_vars.begin(), body_vars.end(), v) !=
            body_vars.end()) {
          return Status::InvalidArgument(
              "declared existential variable also occurs in the body of: " +
              rule.ToString(*sig_));
        }
      }
      BDDFC_RETURN_NOT_OK(program->theory.AddRule(std::move(rule)));
      return true;
    }

    // Fact list.
    BDDFC_RETURN_NOT_OK(Expect(TokKind::kPeriod, "'.' or '->'"));
    for (const Atom& a : first) {
      if (!a.IsGround()) {
        return Status::InvalidArgument("fact is not ground: " +
                                       a.ToString(*sig_));
      }
      program->instance.AddFact(a);
    }
    return true;
  }

 private:
  std::vector<Token> toks_;
  size_t idx_ = 0;
  Signature* sig_;
  int32_t* next_var_;
  std::unordered_map<std::string, TermId> var_scope_;
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
  if (sig == nullptr) sig = std::make_shared<Signature>();
  BDDFC_ASSIGN_OR_RETURN(std::vector<Token> toks, Lexer(text).Run());
  Program program(sig);
  int32_t next_var = 0;
  Parser parser(std::move(toks), sig.get(), &next_var);
  while (true) {
    BDDFC_ASSIGN_OR_RETURN(bool more, parser.ParseStatement(&program));
    if (!more) break;
  }
  return program;
}

Result<ConjunctiveQuery> ParseQuery(std::string_view text, Signature* sig,
                                    int32_t* next_var) {
  BDDFC_ASSIGN_OR_RETURN(std::vector<Token> toks,
                         Lexer(std::string(text) + " .").Run());
  Parser parser(std::move(toks), sig, next_var);
  // Reuse the statement machinery by parsing an atom list directly.
  BDDFC_ASSIGN_OR_RETURN(std::vector<Atom> atoms, parser.ParseAtomList());
  return ConjunctiveQuery(std::move(atoms));
}

Result<ConjunctiveQuery> ParseQuery(std::string_view text, Signature* sig) {
  int32_t next_var = 0;
  return ParseQuery(text, sig, &next_var);
}

}  // namespace bddfc
