// Text format for Datalog∃ programs, instances and queries.
//
// Syntax (one statement per '.', '%' or '#' start line comments):
//
//   edge(a, b).                                 % fact (lowercase constants)
//   edge(X, Y) -> exists Z: edge(Y, Z).         % existential TGD
//   edge(X, Y), edge(Y, Z) -> edge(X, Z).       % datalog rule
//   ?- edge(X, Y), u(Y).                        % Boolean CQ
//
// Variables start with an uppercase letter; constants with a lowercase
// letter or digit. A predicate or constant whose name would not lex that
// way (uppercase-leading, the keyword 'exists', punctuation, …) is written
// double-quoted with \" and \\ escapes: edge("Foo", "exists"). The 'exists'
// clause is optional — any head variable not occurring in the body is
// existential. Multi-head rules write the head as a comma-separated
// conjunction. 0-ary atoms are written without parentheses as `goal`.
//
// A program parse interns every name into its signature. A query parse
// can instead only read a signature, so threads may share one unlocked
// (the serving layer's artifacts do): a name the signature lacks gets a
// query-local id. The interning query parse is that parse followed by
// interning those names, so either parse fails without interning.

#ifndef BDDFC_PARSER_PARSER_H_
#define BDDFC_PARSER_PARSER_H_

#include <string>
#include <string_view>
#include <vector>

#include "bddfc/base/status.h"
#include "bddfc/core/query.h"
#include "bddfc/core/structure.h"
#include "bddfc/core/theory.h"

namespace bddfc {

/// Result of parsing a program text: rules, ground facts and queries, all
/// over one shared signature.
struct Program {
  Theory theory;
  Structure instance;
  std::vector<ConjunctiveQuery> queries;

  explicit Program(SignaturePtr sig)
      : theory(sig), instance(std::move(sig)) {}
};

class FaultRegistry;

/// Parses a full program. If `sig` is null a fresh signature is created.
/// A failed parse interns nothing: the signature is rolled back to where
/// the parse found it. `faults` hosts the parser's chaos site
/// (faults::kParserParse); null means no site. Serving sessions pass their
/// own registry, so one tenant's fault plan never fires in another's
/// parse.
Result<Program> ParseProgram(std::string_view text, SignaturePtr sig = nullptr,
                             FaultRegistry* faults = nullptr);

/// Parses a single conjunctive query body, e.g. "edge(X, Y), u(Y)", and
/// only reads `sig`. A predicate or constant that `sig` lacks gets a
/// query-local id past `sig`'s table, numbered in order of first
/// occurrence. Nothing in `sig` names such an id, so it renders only
/// through a signature that interned it; no fact over `sig` holds it.
/// Variables are numbered from 0 by first occurrence. An error is the
/// status the interning parse below returns, arity conflicts included
/// (Signature::ArityConflict, against `sig` or an earlier use).
Result<ConjunctiveQuery> ParseQuery(std::string_view text,
                                    const Signature& sig);

/// The read-only parse above against `*sig`, then the query-local names
/// interned into `*sig` in order, so the query's ids are theirs. A failed
/// parse interns nothing.
Result<ConjunctiveQuery> ParseQuery(std::string_view text, Signature* sig);

}  // namespace bddfc

#endif  // BDDFC_PARSER_PARSER_H_
