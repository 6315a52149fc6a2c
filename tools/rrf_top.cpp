// rrf_top — live terminal dashboard over a running sim's ops plane.
//
//   rrf_sim_cli --policy rrf --duration 2700 --serve-ops 9470 &
//   rrf_top localhost:9470
//
// Follows the `/rounds` NDJSON stream on a reader thread and renders a
// refreshing view: per-tenant share bars (S'/S with demand), a Jain and
// max-share-drift sparkline over the last N windows, the active
// alerts (from `/alerts`), open incidents (from `/incidents`),
// allocation throughput, and the top self-time profile sites (from
// `/profile`, when profiling is on).  Parsing and rendering live in
// obs/topview.{hpp,cpp} (tested directly); this file is sockets + loop.
//
//   --interval <s>   refresh period (default 1.0)
//   --windows <n>    sparkline history length (default 60)
//   --once           fetch the buffered backlog (`/rounds?follow=0`),
//                    render one plain frame and exit (no ANSI clears)
#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "cli_util.hpp"
#include "obs/topview.hpp"

namespace {

using namespace rrf;
using obs::top::Feed;
using obs::top::Response;

[[noreturn]] void usage(int code) {
  std::cout <<
      "rrf_top — live dashboard over an RRF ops plane (--serve-ops)\n\n"
      "  rrf_top [host][:port] [--host <h>] [--port <p>]\n"
      "          [--interval <s>] [--windows <n>] [--once]\n\n"
      "  host:port   ops endpoint (default 127.0.0.1:9464)\n"
      "  --interval  refresh period in seconds (default 1.0)\n"
      "  --windows   sparkline history length (default 60)\n"
      "  --once      print one plain frame from the buffered backlog\n"
      "              and exit (no terminal control sequences)\n";
  std::exit(code);
}

// ---------------------------------------------------------------------------
// Minimal HTTP client (blocking POSIX sockets)
// ---------------------------------------------------------------------------

int connect_to(const std::string& host, const std::string& port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  if (::getaddrinfo(host.c_str(), port.c_str(), &hints, &result) != 0) {
    return -1;
  }
  int fd = -1;
  for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(result);
  return fd;
}

bool send_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t sent = ::send(fd, data.data() + off, data.size() - off, 0);
    if (sent <= 0) {
      if (sent < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(sent);
  }
  return true;
}

int request(int fd, const std::string& host, const std::string& target) {
  const std::string req = "GET " + target + " HTTP/1.1\r\nHost: " + host +
                          "\r\nConnection: close\r\n\r\n";
  return send_all(fd, req) ? 0 : -1;
}

/// One-shot GET, reading until the peer closes.  Returns nullopt on
/// connect/send failure.
std::optional<Response> http_get(const std::string& host,
                                 const std::string& port,
                                 const std::string& target) {
  const int fd = connect_to(host, port);
  if (fd < 0) return std::nullopt;
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  if (request(fd, host, target) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  Response response;
  const std::size_t body_at = obs::top::parse_head(raw, &response);
  if (body_at == std::string::npos) return std::nullopt;
  raw.erase(0, body_at);
  if (response.chunked) {
    obs::top::dechunk(&raw, &response.body);
  } else {
    response.body = std::move(raw);
  }
  return response;
}

/// Follows /rounds until the server closes the stream (run over) or the
/// connection drops.
void follow_rounds(const std::string& host, const std::string& port,
                   Feed* feed) {
  const int fd = connect_to(host, port);
  if (fd < 0 || request(fd, host, "/rounds") != 0) {
    if (fd >= 0) ::close(fd);
    feed->disconnected.store(true);
    return;
  }
  std::string raw;
  std::string body;
  bool head_done = false;
  Response response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
    if (!head_done) {
      const std::size_t body_at = obs::top::parse_head(raw, &response);
      if (body_at == std::string::npos) continue;
      raw.erase(0, body_at);
      head_done = true;
      if (response.status != 200) break;
    }
    if (response.chunked) {
      obs::top::dechunk(&raw, &body);
    } else {
      body += raw;
      raw.clear();
    }
    std::size_t eol;
    while ((eol = body.find('\n')) != std::string::npos) {
      feed->push_line(body.substr(0, eol));
      body.erase(0, eol + 1);
    }
  }
  ::close(fd);
  feed->disconnected.store(true);
}

std::string body_or_empty(const std::optional<Response>& response) {
  return response && response->status == 200 ? response->body : "";
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::string port = "9464";
  double interval = 1.0;
  std::size_t windows = 60;
  bool once = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) usage(2);
        return argv[++i];
      };
      if (arg == "--help" || arg == "-h") usage(0);
      else if (arg == "--host") host = next();
      else if (arg == "--port") port = next();
      else if (arg == "--interval") {
        interval = tools::parse_number<double>(arg, next());
      } else if (arg == "--windows") {
        windows = tools::parse_number<std::size_t>(arg, next());
      } else if (arg == "--once") {
        once = true;
      } else if (!arg.empty() && arg[0] != '-') {
        const std::size_t colon = arg.find(':');
        if (colon == std::string::npos) {
          host = arg;
        } else {
          if (colon > 0) host = arg.substr(0, colon);
          port = arg.substr(colon + 1);
        }
      } else {
        usage(2);
      }
    }
  } catch (const DomainError& e) {
    std::cerr << "rrf_top: " << e.what() << "\n";
    return 2;
  }
  if (windows == 0) windows = 1;
  const std::string endpoint = host + ":" + port;

  Feed feed;
  feed.window_limit = windows;

  if (once) {
    const auto rounds = http_get(host, port, "/rounds?follow=0");
    if (!rounds || rounds->status != 200) {
      std::cerr << "rrf_top: cannot fetch /rounds from " << endpoint
                << (rounds ? " (HTTP " + std::to_string(rounds->status) + ")"
                           : "")
                << "\n";
      return 1;
    }
    std::istringstream body(rounds->body);
    std::string line;
    while (std::getline(body, line)) feed.push_line(line);
    const auto alerts = http_get(host, port, "/alerts");
    const auto profile = http_get(host, port, "/profile");
    const auto incidents = http_get(host, port, "/incidents");
    std::cout << obs::top::render_frame(feed, endpoint, body_or_empty(alerts),
                                        body_or_empty(profile),
                                        body_or_empty(incidents));
    return 0;
  }

  std::thread reader(follow_rounds, host, port, &feed);
  for (;;) {
    const auto alerts = http_get(host, port, "/alerts");
    const auto profile = http_get(host, port, "/profile");
    const auto incidents = http_get(host, port, "/incidents");
    const std::string frame = obs::top::render_frame(
        feed, endpoint, body_or_empty(alerts), body_or_empty(profile),
        body_or_empty(incidents));
    // Home + clear-to-end keeps the frame flicker-free on ANSI terminals.
    std::cout << "\x1b[H\x1b[J" << frame << std::flush;
    if (feed.disconnected.load()) {
      std::cout << "(stream ended)\n";
      break;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(interval));
  }
  reader.join();
  return 0;
}
