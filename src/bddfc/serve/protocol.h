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

#ifndef BDDFC_SERVE_PROTOCOL_H_
#define BDDFC_SERVE_PROTOCOL_H_

#include <string>
#include <string_view>

#include "bddfc/base/status.h"
#include "bddfc/serve/server.h"

namespace bddfc::serve {

/// Longest request header line the daemon buffers, in bytes. A header is
/// a verb plus at most three short tokens; a connection that sends more
/// without a newline gets one InvalidArgument error and is closed (an
/// HTTP one is just closed).
inline constexpr size_t kMaxRequestLineBytes = 4096;

/// Renders a response in wire framing.
std::string FormatResponse(const Response& response);

/// Parses one request header line (no trailing newline). On success sets
/// *out and *payload_bytes (0 for payload-free kinds); kQuit is reported
/// via *quit. Malformed lines return InvalidArgument.
Status ParseRequestLine(std::string_view line, Request* out,
                        size_t* payload_bytes, bool* quit);

/// Serves requests from an in-memory byte stream (the protocol's pure
/// core — the socket loop and tests feed it the same bytes): consumes
/// `input`, appends every framed response to *output, stops at QUIT or
/// end of input. Returns the number of requests served.
size_t ServeBuffer(ReasoningServer& server, std::string_view input,
                   std::string* output);

/// True when `prefix` starts an HTTP GET (the fallback path).
bool LooksLikeHttp(std::string_view prefix);

/// Answers one HTTP GET request line ("GET /metrics HTTP/1.1") with a
/// complete HTTP/1.0 response.
std::string HandleHttp(ReasoningServer& server, std::string_view request_line);

}  // namespace bddfc::serve

#endif  // BDDFC_SERVE_PROTOCOL_H_
