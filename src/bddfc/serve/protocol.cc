#include "bddfc/serve/protocol.h"

#include <algorithm>
#include <vector>

namespace bddfc::serve {

namespace {

// Splits on single spaces; protocol tokens never contain spaces.
std::vector<std::string_view> Tokens(std::string_view line) {
  std::vector<std::string_view> out;
  size_t pos = 0;
  while (pos < line.size()) {
    size_t next = line.find(' ', pos);
    if (next == std::string_view::npos) next = line.size();
    if (next > pos) out.push_back(line.substr(pos, next - pos));
    pos = next + 1;
  }
  return out;
}

bool ParseSize(std::string_view token, size_t* out) {
  if (token.empty() || token.size() > 9) return false;
  size_t v = 0;
  for (char c : token) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<size_t>(c - '0');
  }
  *out = v;
  return true;
}

}  // namespace

std::string FormatResponse(const Response& response) {
  std::string out;
  if (response.status.ok()) {
    out = "OK ";
  } else {
    out = "ERR ";
    out += StatusCodeName(response.status.code());
    out += ' ';
  }
  out += std::to_string(response.body.size());
  out += '\n';
  out += response.body;
  return out;
}

Status ParseRequestLine(std::string_view line, Request* out,
                        size_t* payload_bytes, bool* quit) {
  *payload_bytes = 0;
  *quit = false;
  const std::vector<std::string_view> tok = Tokens(line);
  if (tok.empty()) return Status::InvalidArgument("empty request line");
  const std::string_view verb = tok[0];

  if (verb == "QUIT") {
    if (tok.size() != 1) return Status::InvalidArgument("QUIT takes no args");
    *quit = true;
    return Status::OK();
  }
  if (verb == "HEALTH") {
    if (tok.size() != 1) return Status::InvalidArgument("HEALTH takes no args");
    out->kind = Request::Kind::kHealth;
    return Status::OK();
  }
  if (verb == "METRICS") {
    if (tok.size() > 2) {
      return Status::InvalidArgument("usage: METRICS [<tenant>]");
    }
    out->kind = Request::Kind::kMetrics;
    out->tenant = tok.size() == 2 ? std::string(tok[1]) : std::string();
    return Status::OK();
  }
  if (verb == "LOAD") {
    if (tok.size() != 3 || !ParseSize(tok[2], payload_bytes)) {
      return Status::InvalidArgument("usage: LOAD <tenant> <nbytes>");
    }
    out->kind = Request::Kind::kLoad;
    out->tenant = std::string(tok[1]);
    return Status::OK();
  }
  if (verb == "QUERY" || verb == "REWRITE") {
    if (tok.size() != 4 || !KeyFromHex(tok[2], &out->key) ||
        !ParseSize(tok[3], payload_bytes)) {
      return Status::InvalidArgument(
          "usage: " + std::string(verb) + " <tenant> <key-hex> <nbytes>");
    }
    out->kind = verb == "QUERY" ? Request::Kind::kQuery
                                : Request::Kind::kRewrite;
    out->tenant = std::string(tok[1]);
    return Status::OK();
  }
  return Status::InvalidArgument("unknown verb " + std::string(verb));
}

void Framer::Reply(const Status& status, std::string* out) {
  *out += FormatResponse(Response{status, status.message()});
  ++served_;
}

bool Framer::Serve(std::string_view in, size_t* pos, std::string* out,
                   bool at_end) {
  for (;;) {
    const std::string_view rest = in.substr(*pos);
    if (!started_) {
      // Only the connection's first bytes can open an HTTP request; wait
      // while they still could.
      const size_t n = std::min<size_t>(rest.size(), 4);
      if (n < 4 && !at_end && rest == std::string_view("GET ", n)) {
        return false;
      }
      started_ = true;
      http_ = LooksLikeHttp(rest);
    }
    size_t eol = rest.find('\n');
    if ((eol == std::string_view::npos ? rest.size() : eol) >
        kMaxRequestLineBytes) {
      if (!http_) {
        Reply(Status::InvalidArgument(
                  "request line exceeds " +
                  std::to_string(kMaxRequestLineBytes) + " bytes"),
              out);
      }
      return true;
    }
    if (eol == std::string_view::npos) {
      if (!at_end || rest.empty()) return false;
      eol = rest.size();
    }
    std::string_view line = rest.substr(0, eol);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    const size_t next = std::min(*pos + eol + 1, in.size());
    if (http_) {
      *out += HandleHttp(server_, line);
      ++served_;
      return true;
    }
    if (line.empty()) {
      *pos = next;
      continue;
    }

    Request request;
    size_t payload_bytes = 0;
    bool quit = false;
    const Status parsed =
        ParseRequestLine(line, &request, &payload_bytes, &quit);
    if (quit) return true;
    if (!parsed.ok()) {
      Reply(parsed, out);
      *pos = next;
      continue;
    }
    // The payload is buffered whole before Handle: refuse one the server's
    // memory budget could never admit before reading it.
    const size_t limit = server_.options().memory_limit_bytes;
    if (limit != 0 && payload_bytes > limit) {
      Reply(Status::InvalidArgument(
                "payload of " + std::to_string(payload_bytes) +
                " bytes exceeds the server memory limit of " +
                std::to_string(limit) + " bytes"),
            out);
      return true;
    }
    if (in.size() - next < payload_bytes) {
      if (at_end) Reply(Status::InvalidArgument("truncated payload"), out);
      return at_end;
    }
    request.payload = std::string(in.substr(next, payload_bytes));
    *pos = next + payload_bytes;
    // An optional newline after the payload keeps hand-written scripts
    // readable; it is not part of the payload.
    if (*pos < in.size() && in[*pos] == '\n') ++*pos;
    *out += FormatResponse(server_.Handle(request));
    ++served_;
  }
}

size_t ServeBuffer(ReasoningServer& server, std::string_view input,
                   std::string* output) {
  Framer framer(server);
  size_t pos = 0;
  framer.Serve(input, &pos, output, /*at_end=*/true);
  return framer.served();
}

bool LooksLikeHttp(std::string_view prefix) {
  return prefix.substr(0, 4) == "GET ";
}

std::string HandleHttp(ReasoningServer& server,
                       std::string_view request_line) {
  // "GET <path> ..." — only the path matters.
  std::string_view path;
  if (const std::vector<std::string_view> tok = Tokens(request_line);
      tok.size() >= 2) {
    path = tok[1];
  }
  std::string body;
  const char* status_line = "HTTP/1.0 200 OK";
  if (path == "/metrics") {
    body = server.MetricsText();
  } else if (path == "/healthz") {
    body = "ok\n";
  } else {
    status_line = "HTTP/1.0 404 Not Found";
    body = "not found\n";
  }
  std::string out = status_line;
  out += "\r\nContent-Type: text/plain\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace bddfc::serve
