// The daemon's wire protocol: a framed line protocol plus a minimal HTTP
// GET fallback for scrapers.
//
// Requests (one header line, then an exact-length payload for the kinds
// that carry one):
//
//   LOAD <tenant> <nbytes>\n<nbytes of program text>
//   QUERY <tenant> <key-hex> <nbytes>\n<nbytes of CQ body text>
//   REWRITE <tenant> <key-hex> <nbytes>\n<nbytes of CQ body text>
//   METRICS [<tenant>]\n
//   HEALTH\n
//   QUIT\n
//
// Responses are uniformly framed so clients never guess lengths:
//
//   OK <nbytes>\n<nbytes of body>
//   ERR <status-code-name> <nbytes>\n<nbytes of body>
//
// HTTP fallback: a connection whose first bytes spell "GET " is answered
// with one HTTP/1.0 response and closed — "GET /metrics" returns the
// server's text exposition, "GET /healthz" returns "ok", anything else
// 404. Enough for curl and a scrape job; not an HTTP server.
//
// Framing is one routine, Framer::Serve: the socket loop (daemon.h) and
// ServeBuffer feed it the same bytes and get the same answers.

#ifndef BDDFC_SERVE_PROTOCOL_H_
#define BDDFC_SERVE_PROTOCOL_H_

#include <string>
#include <string_view>

#include "bddfc/base/status.h"
#include "bddfc/serve/server.h"

namespace bddfc::serve {

/// Longest request header line served, in bytes. A header is a verb plus
/// at most three short tokens; a longer line, terminated or not, gets one
/// InvalidArgument error and closes the connection (an HTTP one is just
/// closed).
inline constexpr size_t kMaxRequestLineBytes = 4096;

/// Renders a response in wire framing.
std::string FormatResponse(const Response& response);

/// Parses one request header line (no trailing newline). On success sets
/// *out and *payload_bytes (0 for payload-free kinds); kQuit is reported
/// via *quit. Malformed lines return InvalidArgument.
Status ParseRequestLine(std::string_view line, Request* out,
                        size_t* payload_bytes, bool* quit);

/// The request framing of one connection.
class Framer {
 public:
  explicit Framer(ReasoningServer& server) : server_(server) {}

  /// Serves every complete request of `in` from *pos on, in order,
  /// advancing *pos past each and appending its response to *out. Returns
  /// true when the connection must close: after QUIT, an HTTP GET, a
  /// header line over kMaxRequestLineBytes, or a declared payload over the
  /// server's memory limit (refused before it is read). With `at_end` no
  /// byte follows `in`: an unterminated last line counts as a line, and a
  /// payload cut short is answered "truncated payload".
  bool Serve(std::string_view in, size_t* pos, std::string* out,
             bool at_end);

  /// Responses written so far.
  size_t served() const { return served_; }

 private:
  void Reply(const Status& status, std::string* out);

  ReasoningServer& server_;
  bool started_ = false;  ///< the first bytes have decided HTTP or not
  bool http_ = false;
  size_t served_ = 0;
};

/// Serves a whole byte stream with one Framer, as a connection that sends
/// `input` and then closes: appends every framed response to *output and
/// returns how many it wrote.
size_t ServeBuffer(ReasoningServer& server, std::string_view input,
                   std::string* output);

/// True when `prefix` starts an HTTP GET (the fallback path).
bool LooksLikeHttp(std::string_view prefix);

/// Answers one HTTP GET request line ("GET /metrics HTTP/1.1") with a
/// complete HTTP/1.0 response.
std::string HandleHttp(ReasoningServer& server, std::string_view request_line);

}  // namespace bddfc::serve

#endif  // BDDFC_SERVE_PROTOCOL_H_
