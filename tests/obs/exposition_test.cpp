#include "obs/exposition.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <array>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "obs/detect.hpp"
#include "obs/incident.hpp"
#include "obs/ops.hpp"

namespace rrf::obs {
namespace {

/// Connects to 127.0.0.1:port, retrying briefly: the accept loop runs on
/// its own thread, and on a loaded 1-core CI runner a connect can race it.
int connect_with_retry(std::uint16_t port) {
  for (int attempt = 0;; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    ::close(fd);
    if (attempt >= 50) return -1;
    ::usleep(10'000);  // 10 ms; up to ~0.5 s total
  }
}

/// Tiny blocking HTTP client: one GET, reads until the server closes.
std::string http_get(std::uint16_t port, const std::string& target) {
  const int fd = connect_with_retry(port);
  if (fd < 0) {
    ADD_FAILURE() << "connect to 127.0.0.1:" << port << " failed";
    return {};
  }
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  ::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

/// Splits a raw HTTP response and de-chunks the body when the response
/// used chunked transfer encoding.
std::string body_of(const std::string& response) {
  const std::size_t head_end = response.find("\r\n\r\n");
  if (head_end == std::string::npos) return {};
  std::string raw = response.substr(head_end + 4);
  if (response.substr(0, head_end).find("chunked") == std::string::npos) {
    return raw;
  }
  std::string body;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t eol = raw.find("\r\n", pos);
    if (eol == std::string::npos) break;
    const std::size_t size = std::strtoul(raw.c_str() + pos, nullptr, 16);
    if (size == 0) break;
    body.append(raw, eol + 2, size);
    pos = eol + 2 + size + 2;
  }
  return body;
}

std::vector<std::string> ndjson_lines(const std::string& body) {
  std::vector<std::string> lines;
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

RoundSummary make_round(std::size_t window) {
  RoundSummary summary;
  summary.window = window;
  summary.jain = 0.95;
  summary.slots = 4;
  TenantRoundStat stat;
  stat.name = "t0";
  stat.share = 1.0;
  summary.tenants.push_back(stat);
  return summary;
}

TEST(ObsExposition, LabeledBuildsRegistryKeys) {
  EXPECT_EQ(labeled("fairness.tenant_beta", {{"tenant", "tpcc-1"}}),
            "fairness.tenant_beta{tenant=tpcc-1}");
  EXPECT_EQ(labeled("fairness.alerts", {{"kind", "jain"}, {"tenant", "a"}}),
            "fairness.alerts{kind=jain,tenant=a}");
}

TEST(ObsExposition, PrometheusNameManglesAndParsesLabels) {
  const PrometheusName plain = prometheus_name("phase.allocate.seconds");
  EXPECT_EQ(plain.base, "rrf_phase_allocate_seconds");
  EXPECT_TRUE(plain.labels.empty());

  const PrometheusName with_labels =
      prometheus_name("fairness.tenant_beta{tenant=tpcc-1}");
  EXPECT_EQ(with_labels.base, "rrf_fairness_tenant_beta");
  ASSERT_EQ(with_labels.labels.size(), 1u);
  EXPECT_EQ(with_labels.labels[0].first, "tenant");
  EXPECT_EQ(with_labels.labels[0].second, "tpcc-1");

  const PrometheusName multi =
      prometheus_name("fairness.alerts{kind=jain,tenant=a}");
  ASSERT_EQ(multi.labels.size(), 2u);
  EXPECT_EQ(multi.labels[0].first, "kind");
  EXPECT_EQ(multi.labels[1].first, "tenant");

  // Already-prefixed names are not double-prefixed.
  EXPECT_EQ(prometheus_name("rrf_custom").base, "rrf_custom");
}

TEST(ObsExposition, WritePrometheusRendersAllInstrumentKinds) {
  MetricsRegistry registry;
  registry.counter("hits").add(3);
  registry.gauge(labeled("fairness.tenant_beta", {{"tenant", "a"}})).set(0.5);
  registry.gauge(labeled("fairness.tenant_beta", {{"tenant", "b"}})).set(1.5);
  const std::array<double, 2> bounds = {1.0, 2.0};
  Histogram& h = registry.histogram("latency", bounds);
  h.observe(0.5);
  h.observe(1.5);
  h.observe(5.0);

  std::ostringstream os;
  write_prometheus(os, registry);
  const std::string text = os.str();

  EXPECT_NE(text.find("# TYPE rrf_hits counter\n"), std::string::npos);
  EXPECT_NE(text.find("rrf_hits 3\n"), std::string::npos);
  EXPECT_NE(text.find("rrf_fairness_tenant_beta{tenant=\"a\"} 0.5"),
            std::string::npos);
  EXPECT_NE(text.find("rrf_fairness_tenant_beta{tenant=\"b\"} 1.5"),
            std::string::npos);
  // One TYPE line for the whole labeled family, not one per series.
  std::size_t type_lines = 0;
  for (std::size_t pos = 0;
       (pos = text.find("# TYPE rrf_fairness_tenant_beta", pos)) !=
       std::string::npos;
       ++pos) {
    ++type_lines;
  }
  EXPECT_EQ(type_lines, 1u);

  // Histogram buckets are cumulative and end in +Inf.
  EXPECT_NE(text.find("rrf_latency_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("rrf_latency_bucket{le=\"2\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("rrf_latency_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("rrf_latency_sum 7\n"), std::string::npos);
  EXPECT_NE(text.find("rrf_latency_count 3\n"), std::string::npos);

  // Every histogram also exports a companion summary family with
  // pre-computed p50/p95/p99 quantiles.
  EXPECT_NE(text.find("# TYPE rrf_latency_summary summary\n"),
            std::string::npos);
  for (const double q : {0.5, 0.95, 0.99}) {
    std::ostringstream needle;
    needle << "rrf_latency_summary{quantile=\"" << q << "\"} "
           << format_sample(h.quantile(q)) << '\n';
    EXPECT_NE(text.find(needle.str()), std::string::npos) << needle.str();
  }
  EXPECT_NE(text.find("rrf_latency_summary_sum 7\n"), std::string::npos);
  EXPECT_NE(text.find("rrf_latency_summary_count 3\n"), std::string::npos);
}

TEST(ObsExposition, WritePrometheusKeepsEveryDigit) {
  // Samples print as shortest round-trip numbers, not in six significant
  // digits, so a scrape reads back the double the registry holds.
  MetricsRegistry registry;
  registry.gauge("big").set(12345678.9);
  registry.gauge("third").set(1.0 / 3.0);
  registry.gauge("up").set(std::numeric_limits<double>::infinity());
  registry.gauge("down").set(-std::numeric_limits<double>::infinity());
  registry.gauge("undefined").set(std::numeric_limits<double>::quiet_NaN());
  const std::array<double, 1> bounds = {1.0};
  Histogram& h = registry.histogram("shares", bounds);
  h.observe(10229802.25087185);
  h.observe(0.1);

  std::ostringstream os;
  write_prometheus(os, registry);
  const std::string text = os.str();
  // The value text of the series named `series` (name, space, value).
  const auto sample = [&text](const std::string& series) {
    const std::size_t at = text.find("\n" + series + " ");
    if (at == std::string::npos) return std::string("<missing>");
    const std::size_t begin = at + series.size() + 2;
    return text.substr(begin, text.find('\n', begin) - begin);
  };
  const auto read_back = [&](const std::string& series) {
    const std::string value = sample(series);
    double out = 0.0;
    const auto [end, ec] =
        std::from_chars(value.data(), value.data() + value.size(), out);
    EXPECT_TRUE(ec == std::errc() && end == value.data() + value.size())
        << series << " = " << value;
    return out;
  };
  EXPECT_EQ(read_back("rrf_big"), 12345678.9);
  EXPECT_EQ(read_back("rrf_third"), 1.0 / 3.0);
  EXPECT_EQ(read_back("rrf_shares_sum"), h.sum());
  EXPECT_EQ(read_back("rrf_shares_summary_sum"), h.sum());
  EXPECT_EQ(sample("rrf_up"), "+Inf");
  EXPECT_EQ(sample("rrf_down"), "-Inf");
  EXPECT_EQ(sample("rrf_undefined"), "NaN");
}

TEST(ObsExposition, SummaryQuantilesKeepTheirLabels) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram(
      labeled("phase.seconds", {{"phase", "allocate"}}),
      default_seconds_bounds());
  for (int i = 0; i < 10; ++i) h.observe(2e-3);

  std::ostringstream os;
  write_prometheus(os, registry);
  const std::string text = os.str();
  EXPECT_NE(
      text.find("rrf_phase_seconds_summary{phase=\"allocate\",quantile="),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("rrf_phase_seconds_summary_count{phase=\"allocate\"}"),
            std::string::npos);
}

TEST(ObsExposition, LabelValuesAreEscaped) {
  MetricsRegistry registry;
  registry.gauge(labeled("g", {{"k", "a\"b\\c\nd"}})).set(1.0);
  std::ostringstream os;
  write_prometheus(os, registry);
  EXPECT_NE(os.str().find("rrf_g{k=\"a\\\"b\\\\c\\nd\"} 1"),
            std::string::npos);
}

TEST(ObsExposition, ServerServesMetricsHealthAndNotFound) {
  MetricsRegistry registry;
  registry.gauge("fairness.jain_index").set(0.97);
  registry.counter("fairness.alerts").add(2);

  ExpositionServer::Config config;
  config.port = 0;  // ephemeral
  ExpositionServer server(config, &registry);
  server.start();
  ASSERT_TRUE(server.running());
  ASSERT_NE(server.port(), 0);

  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("rrf_fairness_jain_index 0.97"), std::string::npos);
  EXPECT_NE(metrics.find("rrf_fairness_alerts 2"), std::string::npos);

  const std::string json = http_get(server.port(), "/metrics.json");
  EXPECT_NE(json.find("application/json"), std::string::npos);
  EXPECT_NE(json.find("fairness.jain_index"), std::string::npos);

  const std::string health = http_get(server.port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(health.find("ok"), std::string::npos);

  const std::string missing = http_get(server.port(), "/nope");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);

  EXPECT_GE(server.requests_served(), 4u);
  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // idempotent
}

TEST(ObsExposition, StructuralLabelCharactersRoundTripTheRegistryKey) {
  // Tenant names are operator input: commas, equals signs, braces and
  // backslashes must survive the registry-key framing...
  const std::string key = labeled("g", {{"tenant", R"(a,b=c{d}e\f)"}});
  const PrometheusName parsed = prometheus_name(key);
  ASSERT_EQ(parsed.labels.size(), 1u);
  EXPECT_EQ(parsed.labels[0].second, R"(a,b=c{d}e\f)");
}

TEST(ObsExposition, QuoteAndNewlineTenantNamesRenderEscaped) {
  // ...and quote/newline must come out escaped per the Prometheus
  // exposition spec (satellite regression: tenant named `evil"\n`).
  MetricsRegistry registry;
  registry.gauge(labeled("fairness.tenant_beta", {{"tenant", "evil\"\nname"}}))
      .set(1.0);
  std::ostringstream os;
  write_prometheus(os, registry);
  EXPECT_NE(
      os.str().find("rrf_fairness_tenant_beta{tenant=\"evil\\\"\\nname\"} 1"),
      std::string::npos)
      << os.str();
}

TEST(ObsExposition, MalformedRequestLineGets400) {
  ExpositionServer server;
  server.start();
  // No leading slash in the target.
  const int fd = connect_with_retry(server.port());
  ASSERT_GE(fd, 0);
  const std::string bad = "GET noslash HTTP/1.1\r\n\r\n";
  ::send(fd, bad.data(), bad.size(), 0);
  std::string response;
  char buf[1024];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos) << response;

  // A peer that hangs up mid-request also gets 400 semantics (the
  // handler must not crash or hang); garbage bytes then close.
  const int fd2 = connect_with_retry(server.port());
  ASSERT_GE(fd2, 0);
  ::send(fd2, "GARBAGE", 7, 0);
  ::shutdown(fd2, SHUT_WR);
  std::string response2;
  while ((n = ::recv(fd2, buf, sizeof(buf), 0)) > 0) {
    response2.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd2);
  EXPECT_NE(response2.find("HTTP/1.1 400"), std::string::npos) << response2;
  server.stop();
}

TEST(ObsExposition, SlowClientGets408NotAPinnedHandler) {
  ExpositionServer::Config config;
  config.read_timeout_ms = 100;
  ExpositionServer server(config);
  server.start();
  const int fd = connect_with_retry(server.port());
  ASSERT_GE(fd, 0);
  // Trickle half a request line, then stall past the read timeout.
  ::send(fd, "GET /met", 8, 0);
  const auto t0 = std::chrono::steady_clock::now();
  std::string response;
  char buf[1024];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ::close(fd);
  EXPECT_NE(response.find("HTTP/1.1 408"), std::string::npos) << response;
  EXPECT_LT(waited, 3.0);  // the timeout, not a hang
  server.stop();
}

TEST(ObsExposition, NonGetMethodsGet405) {
  ExpositionServer server;
  server.start();
  const int fd = connect_with_retry(server.port());
  ASSERT_GE(fd, 0);
  const std::string post = "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
  ::send(fd, post.data(), post.size(), 0);
  std::string response;
  char buf[1024];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("HTTP/1.1 405"), std::string::npos) << response;
  server.stop();
}

TEST(ObsExposition, AlertsEndpointServesTheHubDocument) {
  // Degraded mode first: no hub attached -> the empty document.
  ExpositionServer bare;
  bare.start();
  const std::string empty = http_get(bare.port(), "/alerts");
  EXPECT_NE(empty.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(empty.find("application/json"), std::string::npos);
  EXPECT_NE(empty.find(R"("active":[])"), std::string::npos);
  bare.stop();

  OpsHub hub;
  hub.set_alerts_json(R"({"windows":9,"active":[{"kind":"jain"}]})");
  ExpositionServer::Config config;
  config.ops = &hub;
  ExpositionServer server(config);
  server.start();
  const std::string alerts = http_get(server.port(), "/alerts");
  EXPECT_NE(alerts.find(R"({"windows":9,"active":[{"kind":"jain"}]})"),
            std::string::npos)
      << alerts;
  server.stop();
}

TEST(ObsExposition, ReadyzTripsOnStallAndRecoversOnARound) {
  OpsHub hub;
  ExpositionServer::Config config;
  config.ops = &hub;
  config.stall_deadline_seconds = 0.2;
  ExpositionServer server(config);
  server.start();

  // Within the startup grace period: ready despite zero rounds so far.
  EXPECT_NE(http_get(server.port(), "/readyz").find("HTTP/1.1 200"),
            std::string::npos);
  // Past the deadline with no round ever published: stalled.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  const std::string stalled = http_get(server.port(), "/readyz");
  EXPECT_NE(stalled.find("HTTP/1.1 503"), std::string::npos) << stalled;
  EXPECT_NE(stalled.find("stalled"), std::string::npos) << stalled;
  // Liveness is unaffected by the watchdog.
  EXPECT_NE(http_get(server.port(), "/healthz").find("HTTP/1.1 200"),
            std::string::npos);
  // A fresh round resets the watchdog.
  hub.publish_round(make_round(0));
  EXPECT_NE(http_get(server.port(), "/readyz").find("HTTP/1.1 200"),
            std::string::npos);
  server.stop();
}

TEST(ObsExposition, RoundsWithoutAHubAnswers503) {
  ExpositionServer server;
  server.start();
  const std::string response = http_get(server.port(), "/rounds");
  EXPECT_NE(response.find("HTTP/1.1 503"), std::string::npos) << response;
  server.stop();
}

TEST(ObsExposition, RoundsBacklogStreamsAsChunkedNdjson) {
  OpsHub hub;
  for (std::size_t w = 0; w < 5; ++w) hub.publish_round(make_round(w));
  ExpositionServer::Config config;
  config.ops = &hub;
  ExpositionServer server(config);
  server.start();

  const std::string response = http_get(server.port(), "/rounds?follow=0");
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(response.find("application/x-ndjson"), std::string::npos);
  EXPECT_NE(response.find("Transfer-Encoding: chunked"), std::string::npos);
  const std::vector<std::string> lines = ndjson_lines(body_of(response));
  ASSERT_EQ(lines.size(), 5u);
  for (std::size_t w = 0; w < 5; ++w) {
    const RoundSummary round =
        round_summary_from_json(json::Value::parse(lines[w]));
    EXPECT_EQ(round.window, w);
  }

  // ?n=K caps the line count even in follow mode.
  const std::vector<std::string> capped =
      ndjson_lines(body_of(http_get(server.port(), "/rounds?n=2")));
  EXPECT_EQ(capped.size(), 2u);
  server.stop();
}

TEST(ObsExposition, RoundsFollowStreamsRoundsPublishedAfterConnect) {
  OpsHub hub;
  hub.publish_round(make_round(0));
  ExpositionServer::Config config;
  config.ops = &hub;
  ExpositionServer server(config);
  server.start();

  // Publish two more rounds while a follower is connected; ?n=3 makes
  // the stream terminate once they arrive.
  std::thread publisher([&hub] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    hub.publish_round(make_round(1));
    hub.publish_round(make_round(2));
  });
  const std::string response = http_get(server.port(), "/rounds?n=3");
  publisher.join();
  const std::vector<std::string> lines = ndjson_lines(body_of(response));
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(round_summary_from_json(json::Value::parse(lines[2])).window, 2u);
  server.stop();
}

TEST(ObsExposition, MalformedRoundsQueryGets400) {
  OpsHub hub;
  for (std::size_t w = 0; w < 3; ++w) hub.publish_round(make_round(w));
  ExpositionServer::Config config;
  config.ops = &hub;
  ExpositionServer server(config);
  server.start();

  // A count that is not a plain decimal, or a follow flag other than 0
  // or 1, is refused before the stream starts instead of read as a
  // default (every case here ends even if it were streamed).
  for (const char* target :
       {"/rounds?n=abc&follow=0", "/rounds?n=-1&follow=0", "/rounds?n=2x",
        "/rounds?n=&follow=0", "/rounds?n=2&follow=yes",
        "/rounds?n=2&follow=2"}) {
    const std::string response = http_get(server.port(), target);
    EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos)
        << target << "\n" << response;
    EXPECT_EQ(response.find("chunked"), std::string::npos) << target;
  }
  // Well-formed queries still stream.
  const auto lines = [&](const char* target) {
    return ndjson_lines(body_of(http_get(server.port(), target))).size();
  };
  EXPECT_EQ(lines("/rounds?n=2&follow=1"), 2u);
  EXPECT_EQ(lines("/rounds?follow=0"), 3u);
  server.stop();
}

TEST(ObsExposition, StopWhileAFollowerIsConnectedStaysPrompt) {
  OpsHub hub;
  ExpositionServer::Config config;
  config.ops = &hub;
  ExpositionServer server(config);
  server.start();
  // A follower with nothing to read parks in the hub's wait loop.
  const int fd = connect_with_retry(server.port());
  ASSERT_GE(fd, 0);
  const std::string request = "GET /rounds HTTP/1.1\r\nHost: x\r\n\r\n";
  ::send(fd, request.data(), request.size(), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto t0 = std::chrono::steady_clock::now();
  server.stop();  // must wake the handler, not wait for a round
  const double took =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(took, 5.0);
  ::close(fd);
}

TEST(ObsExposition, ProfileEndpointRequiresTheProfiler) {
  ExpositionServer server;
  server.start();
  const std::string response = http_get(server.port(), "/profile");
  // The profiler is off in this test binary: degraded mode is explicit.
  EXPECT_NE(response.find("HTTP/1.1 503"), std::string::npos) << response;
  server.stop();
}

TEST(ObsExposition, IncidentRoutesServeTheManagerAndDegradeWithoutOne) {
  // Degraded mode: no manager attached -> the empty document, ids 404.
  ExpositionServer bare;
  bare.start();
  const std::string empty = http_get(bare.port(), "/incidents");
  EXPECT_NE(empty.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(empty.find(R"("incidents":[])"), std::string::npos);
  const std::string missing = http_get(bare.port(), "/incidents/inc-0001");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);
  bare.stop();

  // Live manager: drive it into one open incident, then fetch both
  // routes.  Small windows so a handful of rounds suffices.
  DetectConfig detect;
  detect.warmup_rounds = 2;
  detect.fast_window = 3;
  detect.slow_window = 10;
  DetectorBank bank(detect, {"victim"}, {1.0});
  IncidentManager manager(IncidentConfig{});
  for (std::size_t w = 0; w < 16; ++w) {
    RoundDigest digest;
    digest.reset(1, 0);
    digest.window = w;
    digest.tenant_position = {1.0};
    digest.tenant_demand = {1.0};
    digest.tenant_granted = {w < 10 ? 1.0 : 0.4};  // starved from window 10
    bank.observe_round(digest);
    manager.observe_round(bank);
  }
  ASSERT_EQ(manager.open_count(), 1u);

  ExpositionServer::Config config;
  config.incidents = &manager;
  ExpositionServer server(config);
  server.start();
  const std::string list = http_get(server.port(), "/incidents");
  EXPECT_NE(list.find(R"("id":"inc-0001")"), std::string::npos) << list;
  EXPECT_NE(list.find(R"("state":"open")"), std::string::npos);
  const std::string one = http_get(server.port(), "/incidents/inc-0001");
  EXPECT_NE(one.find(R"("schema":"rrf-incident")"), std::string::npos) << one;
  EXPECT_NE(one.find("victim"), std::string::npos);
  const std::string unknown = http_get(server.port(), "/incidents/inc-0042");
  EXPECT_NE(unknown.find("HTTP/1.1 404"), std::string::npos);
  server.stop();
}

TEST(ObsExposition, ServerRestartsAfterStop) {
  MetricsRegistry registry;
  registry.counter("restart.probe").add(1);
  ExpositionServer server(ExpositionServer::Config{}, &registry);
  server.start();
  server.stop();
  server.start();
  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("rrf_restart_probe 1"), std::string::npos);
  server.stop();
}

}  // namespace
}  // namespace rrf::obs
